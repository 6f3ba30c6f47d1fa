// Command essat-sim runs one ESSAT simulation scenario and prints its
// metrics: duty cycle, per-rank duty distribution, query latency per
// class, coverage, and protocol overheads. The scenario comes either
// from flags or, declaratively, from a JSON spec file (-scenario);
// -list shows every protocol, topology generator, channel model,
// radio profile, dynamics kind, metric sink, and figure driver.
//
// Examples:
//
//	essat-sim -protocol DTS-SS -rate 5 -duration 200s
//	essat-sim -protocol STS-SS -deadline 120ms -seeds 5
//	essat-sim -protocol DTS-SS -loss 0.1 -failures 2
//	essat-sim -topology corridor -protocol DTS-SS
//	essat-sim -channel shadowing -radio cc2420 -audit
//	essat-sim -channel dual-disc:inner=0.6,outer=1.3 -seed 42
//	essat-sim -protocol DTS-SS -churn 3 -burst 20s -audit
//	essat-sim -scenario testdata/dynamics_crash.json -audit
//	essat-sim -scenario testdata/example.json
//	essat-sim -list
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/essat/essat"
	"github.com/essat/essat/internal/stats"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "run a declarative JSON scenario spec from this file (replaces the shape flags; an explicit -duration still overrides the file)")
		list     = flag.Bool("list", false, "list registered protocols, topology generators, and figures, then exit")
		protocol = flag.String("protocol", "DTS-SS", "protocol: DTS-SS, STS-SS, NTS-SS, SPAN, PSM, SYNC, TMAC (see -list)")
		topo     = flag.String("topology", "", "topology generator: uniform, grid, clusters, corridor (empty = uniform)")
		channel  = flag.String("channel", "", "channel propagation model: disc, shadowing, dual-disc; knobs as model:key=value,... e.g. shadowing:sigma=6 (empty = disc)")
		radioPr  = flag.String("radio", "", "radio energy profile: paper, cc1000, cc2420 (empty = paper)")
		seedBase = flag.Int64("seed", 1, "base seed; runs use seeds seed..seed+seeds-1 (overrides a spec file's seed when set explicitly)")
		rate     = flag.Float64("rate", 1.0, "base rate of query class Q1 in Hz (Q1:Q2:Q3 = 6:3:2)")
		perClass = flag.Int("queries", 1, "queries per class")
		nodes    = flag.Int("nodes", 80, "number of nodes")
		area     = flag.Float64("area", 500, "deployment area side in meters")
		duration = flag.Duration("duration", 200*time.Second, "simulated duration")
		seeds    = flag.Int("seeds", 1, "number of seeds to average over")
		deadline = flag.Duration("deadline", 0, "STS deadline D (0 = query period)")
		tbe      = flag.Duration("tbe", -1, "Safe Sleep break-even time (-1 = radio default)")
		loss     = flag.Float64("loss", 0, "independent per-delivery loss probability")
		failures = flag.Int("failures", 0, "random non-leaf nodes to kill mid-run")
		bfs      = flag.Bool("bfs-tree", false, "use idealized BFS tree instead of simulated setup flood")
		verbose  = flag.Bool("v", false, "print per-rank duty cycles and channel stats")
		traceN   = flag.Int("trace", 0, "record and print the last N structured events (radio transitions, recovery); overrides a spec file's trace_capacity")
		dissem   = flag.Duration("dissem", 0, "add a downstream command flow with this period (0 = none)")
		peers    = flag.Int("peers", 0, "add N random peer-to-peer flows at 1 Hz")
		battery  = flag.Float64("battery", 0, "per-node battery budget in joules (0 = unlimited)")
		churn    = flag.Int("churn", 0, "crash N random nodes mid-run, each recovering after a quarter of the run (dynamics layer)")
		burst    = flag.Duration("burst", 0, "inject a traffic burst of this length at mid-run, reports every 250ms (dynamics layer)")
		audit    = flag.Bool("audit", false, "run the cross-layer invariant auditor and print the trace digest")
		sinks    = flag.String("sinks", "", "comma-separated metric sinks to attach (timeseries, energy, jsonl; see -list); overrides a spec file's results block. Sink params need a spec file")
		records  = flag.String("records", "", "write every run's metric-sink records to this file (\"-\" = stdout), schema-validated")
		recFmt   = flag.String("records-format", "jsonl", "records export format: jsonl (one JSON record per line) or csv (flattened long format, one value per row)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget per run; a run exceeding it aborts with exit code 2 (0 = unlimited)")
	)
	flag.Parse()

	if *list {
		printRegistries()
		return
	}

	if *seeds <= 0 {
		fatal(fmt.Errorf("seeds must be positive, got %d", *seeds))
	}
	if *scenario == "" {
		// The spec layer treats non-positive overrides as "keep the
		// default"; explicit flag values must not be swallowed that way.
		if *duration <= 0 {
			fatal(fmt.Errorf("non-positive duration %v", *duration))
		}
		if *nodes <= 0 {
			fatal(fmt.Errorf("nodes must be positive, got %d", *nodes))
		}
		if *area <= 0 {
			fatal(fmt.Errorf("area must be positive, got %g", *area))
		}
	}
	chSpec, err := parseChannelFlag(*channel)
	if err != nil {
		fatal(err)
	}
	spec := specFromFlags(*protocol, *topo, *rate, *perClass, *nodes, *area,
		*duration, *deadline, *tbe, *loss, *failures, *bfs, *dissem, *peers, *battery,
		*churn, *burst, chSpec, *radioPr)
	seedExplicit := false
	if *scenario != "" {
		loaded, err := essat.LoadSpec(*scenario)
		if err != nil {
			fatal(err)
		}
		// The file replaces the shape flags, with exceptions: explicitly
		// passed -duration, -channel, and -radio override it, so checked-in
		// specs can be smoke-tested under different durations and hardware
		// models (-scenario testdata/large.json -duration 5s -channel
		// shadowing) without editing them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "duration":
				loaded.Duration = essat.Dur(*duration)
				if loaded.MeasureFrom != nil && loaded.MeasureFrom.D() >= *duration {
					loaded.MeasureFrom = nil
				}
			case "channel":
				loaded.Channel = chSpec
			case "radio":
				// -radio "" resets a spec's radio block to the paper
				// default, mirroring what -channel "" does for the model.
				if *radioPr == "" {
					loaded.Radio = nil
				} else {
					loaded.Radio = &essat.RadioSpec{Profile: *radioPr}
				}
			}
		})
		spec = loaded
	}
	if *audit {
		spec.Audit = true
	}
	if *traceN > 0 {
		spec.TraceCapacity = *traceN
	}
	if *sinks != "" {
		rs := &essat.ResultsSpec{}
		for _, name := range strings.Split(*sinks, ",") {
			rs.Sinks = append(rs.Sinks, essat.SinkSpec{Name: strings.TrimSpace(name)})
		}
		spec.Results = rs
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedExplicit = true
		}
	})

	var duty, lat stats.Welford
	var last, firstViolating *essat.Result
	var allRecords []essat.MetricRecord
	for i := int64(0); i < int64(*seeds); i++ {
		run := *spec
		// An explicitly passed -seed wins over a spec file's seed; the
		// historical default (seeds 1..N, a spec's own seed honored on
		// single-seed runs) is unchanged otherwise.
		if seedExplicit || *seeds > 1 || run.Seed == 0 {
			run.Seed = *seedBase + i
		}
		res, err := essat.RunSpecContext(context.Background(), &run, essat.Budget{WallClock: *timeout})
		if err != nil {
			var be *essat.BudgetExceededError
			if errors.As(err, &be) {
				// Distinct exit code so harnesses can tell "too slow"
				// from "invalid scenario".
				fmt.Fprintln(os.Stderr, "essat-sim:", err)
				os.Exit(2)
			}
			fatal(err)
		}
		duty.Add(res.DutyCycle * 100)
		lat.Add(res.Latency.Mean.Seconds())
		if res.Audit != nil && res.Audit.Total > 0 && firstViolating == nil {
			firstViolating = res
		}
		allRecords = append(allRecords, res.Records...)
		last = res
	}

	if *records != "" {
		if err := writeRecords(*records, *recFmt, allRecords); err != nil {
			fatal(err)
		}
	} else if *recFmt != "jsonl" {
		fatal(errors.New("-records-format requires -records"))
	}

	printResult(spec, last, duty, lat, *verbose)
	// A violation in ANY seed fails the run, not just one in the last
	// seed whose summary printResult showed. The diagnostic always goes
	// to stderr so pipelines capturing only stdout still surface it.
	if firstViolating != nil {
		a := firstViolating.Audit
		fmt.Fprintf(os.Stderr, "essat-sim: seed %d: %d invariant violations (digest %s):\n",
			firstViolating.Seed, a.Total, a.Digest)
		for _, v := range a.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "essat-sim:", err)
	os.Exit(1)
}

// writeRecords exports metric-sink records, validating each against
// the versioned schema first — the exporter refuses to write a record
// downstream tooling would reject. Formats: "jsonl" (one JSON record
// per line, payload structure preserved) and "csv" (flattened long
// format, one value per row — see writeRecordsCSV).
func writeRecords(path, format string, recs []essat.MetricRecord) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	for i := range recs {
		if err := essat.ValidateMetricRecord(&recs[i]); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	switch format {
	case "jsonl":
		for i := range recs {
			line, err := json.Marshal(recs[i])
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return err
			}
		}
		return nil
	case "csv":
		return writeRecordsCSV(w, recs)
	default:
		return fmt.Errorf("unknown records format %q (want jsonl or csv)", format)
	}
}

// writeRecordsCSV flattens records into a tidy long-format table: one
// value per row, with the payload dimensions (node, rank, query,
// interval, the series/histogram x-coordinate) as sparse columns.
// Scalars become field=<name> rows; series samples field="series" rows
// with x = bucket midpoint time in ms; histogram bins field="histogram"
// rows with x = bin lower edge (plus a "histogram_overflow" row when
// nonzero); events one row per populated measure. Row order follows
// the record slice, so output is as deterministic as the records.
func writeRecordsCSV(w io.Writer, recs []essat.MetricRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"sink", "kind", "protocol", "seed", "field",
		"node", "rank", "query", "interval", "x", "value", "unit",
	}); err != nil {
		return err
	}
	ftoa := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	itoa := strconv.Itoa
	for ri := range recs {
		r := &recs[ri]
		row := func(field, node, rank, query, interval, x, value, unit string) error {
			return cw.Write([]string{
				r.Sink, r.Kind, r.Protocol, strconv.FormatInt(r.Seed, 10),
				field, node, rank, query, interval, x, value, unit,
			})
		}
		names := make([]string, 0, len(r.Scalars))
		for name := range r.Scalars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := row(name, "", "", "", "", "", ftoa(r.Scalars[name]), ""); err != nil {
				return err
			}
		}
		for _, s := range r.Series {
			for bi, v := range s.Values {
				x := (float64(bi) + 0.5) * s.BucketMs
				if err := row("series", itoa(s.Node), itoa(s.Rank), "", "", ftoa(x), ftoa(v), "ms"); err != nil {
					return err
				}
			}
		}
		if h := r.Histogram; h != nil {
			for bi, c := range h.Counts {
				lo := float64(bi) * h.BinWidth
				if err := row("histogram", "", "", "", "", ftoa(lo), strconv.FormatUint(c, 10), h.Unit); err != nil {
					return err
				}
			}
			if h.Overflow > 0 {
				lo := float64(len(h.Counts)) * h.BinWidth
				if err := row("histogram_overflow", "", "", "", "", ftoa(lo), strconv.FormatUint(h.Overflow, 10), h.Unit); err != nil {
					return err
				}
			}
		}
		for _, e := range r.Events {
			query := ""
			if e.Query != 0 {
				query = strconv.FormatInt(e.Query, 10)
			}
			switch e.Kind {
			case "report", "interval":
				if err := row(e.Kind+"_latency", "", "", query, itoa(e.Interval),
					"", strconv.FormatInt(e.LatencyNs, 10), "ns"); err != nil {
					return err
				}
				if e.Kind == "interval" {
					if err := row("interval_coverage", "", "", query, itoa(e.Interval),
						"", itoa(e.Coverage), ""); err != nil {
						return err
					}
				}
			case "node":
				if err := row("node_duty_cycle", itoa(e.Node), itoa(e.Rank), "", "", "", ftoa(e.DutyCycle), ""); err != nil {
					return err
				}
				if err := row("node_energy", itoa(e.Node), itoa(e.Rank), "", "", "", ftoa(e.EnergyJ), "J"); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// parseChannelFlag decodes the -channel flag: a model name with
// optional knobs, "shadowing:sigma=6,pathloss=2.7". An empty flag keeps
// the spec's channel (nil).
func parseChannelFlag(s string) (*essat.ChannelSpec, error) {
	if s == "" {
		return nil, nil
	}
	model, rest, hasParams := strings.Cut(s, ":")
	cs := &essat.ChannelSpec{Model: model}
	if !hasParams {
		return cs, nil
	}
	cs.Params = map[string]float64{}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("channel param %q is not key=value", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("channel param %q: %v", kv, err)
		}
		cs.Params[k] = f
	}
	return cs, nil
}

// specFromFlags translates the classic flag interface into the same
// declarative spec the -scenario path uses, so both run identically.
func specFromFlags(protocol, topo string, rate float64, perClass, nodes int, area float64,
	duration, deadline, tbe time.Duration, loss float64, failures int, bfs bool,
	dissem time.Duration, peers int, battery float64,
	churn int, burst time.Duration, channel *essat.ChannelSpec, radioProfile string) *essat.Spec {

	spec := &essat.Spec{
		Protocol: protocol,
		Topology: topo,
		Nodes:    nodes,
		Area:     area,
		Duration: essat.Dur(duration),
		Deadline: essat.Dur(deadline),
		Loss:     loss,
		BFSTree:  bfs,
		BatteryJ: battery,
		Workload: &essat.Workload{BaseRate: rate, PerClass: perClass},
		Channel:  channel,
	}
	if radioProfile != "" {
		spec.Radio = &essat.RadioSpec{Profile: radioProfile}
	}
	if tbe >= 0 {
		be := essat.Dur(tbe)
		spec.BreakEven = &be
	}
	if failures > 0 || loss > 0 {
		spec.FailureThreshold = 3
	}
	for i := 0; i < failures; i++ {
		spec.Dynamics = append(spec.Dynamics, essat.DynamicsSpec{
			Kind: "fail",
			At:   essat.Dur(duration / 4 * time.Duration(i+1) / time.Duration(failures)),
		})
	}
	if dissem > 0 {
		spec.Dissemination = []essat.FlowSpec{{
			ID: -1, Period: essat.Dur(dissem), Phase: essat.Dur(5 * time.Second),
		}}
	}
	for i := 0; i < peers; i++ {
		spec.Peers = append(spec.Peers, essat.FlowSpec{
			ID: int64(-(i + 2)), Period: essat.Dur(time.Second), Phase: essat.Dur(5 * time.Second),
		})
	}
	if churn > 0 {
		spec.Dynamics = append(spec.Dynamics, essat.DynamicsSpec{
			Kind:     "crash",
			At:       essat.Dur(duration / 4),
			Duration: essat.Dur(duration / 4),
			Count:    churn,
		})
	}
	if burst > 0 {
		spec.Dynamics = append(spec.Dynamics, essat.DynamicsSpec{
			Kind:     "burst",
			At:       essat.Dur(duration / 2),
			Duration: essat.Dur(burst),
			Period:   essat.Dur(250 * time.Millisecond),
		})
	}
	return spec
}

func printRegistries() {
	fmt.Println("protocols:")
	for _, p := range essat.AllProtocols() {
		fmt.Printf("  %s\n", p)
	}
	fmt.Println("\ntopology generators:")
	for _, g := range essat.TopologyGenerators() {
		fmt.Printf("  %s\n", g)
	}
	fmt.Println("\nchannel propagation models (spec \"channel\" block; -channel):")
	for _, m := range essat.ChannelModels() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("\nradio energy profiles (spec \"radio\" block; -radio):")
	for _, p := range essat.RadioProfiles() {
		prof, _ := essat.LookupRadioProfile(p)
		fmt.Printf("  %-8s (tBE %v)\n", p, prof.BreakEven())
	}
	fmt.Println("\ndynamics injectors (spec \"dynamics\" block; -churn/-burst shortcuts):")
	for _, k := range essat.DynamicsKinds() {
		fmt.Printf("  %s\n", k)
	}
	fmt.Println("\nmetric sinks (spec \"results\" block; -sinks):")
	for _, s := range essat.MetricSinks() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("\nfigures (essat-bench -fig):")
	for _, f := range essat.FigureCatalog() {
		fmt.Printf("  %-20s %s\n", f.ID, f.Title)
	}
}

func printResult(spec *essat.Spec, last *essat.Result, duty, lat stats.Welford, verbose bool) {
	fmt.Printf("protocol       %s\n", spec.Protocol)
	if spec.Topology != "" {
		fmt.Printf("topology       %s\n", spec.Topology)
	}
	if spec.Channel != nil {
		fmt.Printf("channel        %s\n", spec.Channel.Model)
	}
	if spec.Radio != nil {
		fmt.Printf("radio          %s\n", spec.Radio.Profile)
	}
	fmt.Printf("tree           %d members, max rank %d\n", last.TreeSize, last.MaxRank)
	// One seed is one sample: print no interval rather than ± 0.
	if duty.N() < 2 {
		fmt.Printf("duty cycle     %.2f%%\n", duty.Mean())
		fmt.Printf("query latency  %.3fs (mean of per-interval max-source latency)\n", lat.Mean())
	} else {
		fmt.Printf("duty cycle     %.2f%% ± %.2f (90%% CI over %d seeds)\n", duty.Mean(), duty.CI90(), duty.N())
		fmt.Printf("query latency  %.3fs ± %.3f (mean of per-interval max-source latency)\n", lat.Mean(), lat.CI90())
	}
	fmt.Printf("coverage       %.1f of %d sources per interval (last seed)\n", last.Coverage, last.TreeSize)
	fmt.Printf("energy         mean %.2f J, worst node %.2f J over the window; est. lifetime %.1f days\n",
		last.EnergyMean, last.EnergyMax, last.NetworkLifetime.Hours()/24)
	if last.BatteryDeaths > 0 {
		fmt.Printf("battery        %d nodes exhausted; first death at %v\n",
			last.BatteryDeaths, last.FirstDeath.Round(time.Second))
	}
	if len(spec.Dissemination) > 0 {
		fmt.Printf("dissemination  %.1f%% delivery, %v mean latency\n",
			last.DisseminationDelivery*100, last.DisseminationLatency.Round(time.Millisecond))
	}
	if len(spec.Peers) > 0 {
		fmt.Printf("peer flows     %.1f%% delivery, %v mean latency\n",
			last.P2PDelivery*100, last.P2PLatency.Round(time.Millisecond))
	}
	if last.PhaseUpdateBitsPerReport > 0 {
		fmt.Printf("DTS overhead   %.3f piggybacked bits per data report, %d phase shifts\n",
			last.PhaseUpdateBitsPerReport, last.PhaseShifts)
	}
	fmt.Printf("traffic        %d MAC frames sent, %d failed, %d retries, %d timeouts, %d pass-throughs\n",
		last.MACSent, last.MACFailed, last.MACRetries, last.Timeouts, last.PassThroughs)
	if len(last.Records) > 0 {
		names := make([]string, len(last.Records))
		for i, r := range last.Records {
			names[i] = r.Sink
		}
		fmt.Printf("records        %d sink records per run (%s)\n", len(last.Records), strings.Join(names, ", "))
	}
	if a := last.Audit; a != nil {
		if a.Total == 0 {
			fmt.Printf("audit          clean: %d events, trace digest %s\n", a.Events, a.Digest)
		} else {
			fmt.Printf("audit          %d INVARIANT VIOLATIONS over %d events (digest %s):\n",
				a.Total, a.Events, a.Digest)
			for _, v := range a.Violations {
				fmt.Printf("  %s\n", v)
			}
		}
	}

	if verbose {
		fmt.Println("\nduty cycle by rank (last seed):")
		ranks := make([]int, 0, len(last.DutyByRank))
		for r := range last.DutyByRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			fmt.Printf("  rank %d: %6.2f%%\n", r, last.DutyByRank[r]*100)
		}
		fmt.Println("\nlatency by class (last seed):")
		classes := make([]int, 0, len(last.LatencyByClass))
		for c := range last.LatencyByClass {
			classes = append(classes, c)
		}
		sort.Ints(classes)
		for _, c := range classes {
			ds := last.LatencyByClass[c]
			fmt.Printf("  Q%d: mean=%v p95=%v max=%v (n=%d)\n", c,
				ds.Mean.Round(time.Millisecond), ds.P95.Round(time.Millisecond),
				ds.Max.Round(time.Millisecond), ds.N)
		}
		ch := last.Channel
		fmt.Printf("\nchannel: %d tx, %d delivered, %d overheard, %d collisions, %d missed-asleep\n",
			ch.Transmissions, ch.Deliveries, ch.Overheard, ch.Collisions, ch.MissedAsleep)
		fmt.Printf("events: %d simulator events\n", last.Events)
	}

	if len(last.Trace) > 0 {
		fmt.Printf("\nlast %d structured events (last seed):\n", len(last.Trace))
		for _, e := range last.Trace {
			fmt.Println(" ", e)
		}
	}
}
