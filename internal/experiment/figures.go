package experiment

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/stats"
)

// Options scales the figure sweeps: the paper uses 200-second runs with
// 5 seeds per point; scaled-down settings keep benchmarks fast.
type Options struct {
	// Duration of each run (paper: 200 s).
	Duration time.Duration
	// Seeds per data point (paper: 5; node placement and query phases
	// vary per seed).
	Seeds int
	// Nodes in the deployment (paper: 80).
	Nodes int
	// Parallelism bounds concurrent runs; 0 means GOMAXPROCS.
	Parallelism int
	// Topology selects a placement generator by name; empty
	// keeps the paper's uniform-random deployment. TopologyParams passes
	// the generator's knobs (see internal/topology).
	Topology       string
	TopologyParams map[string]float64
	// Channel selects a propagation model by name; empty keeps
	// the paper's unit-disc channel. ChannelParams passes its knobs
	// (see internal/phy).
	Channel       string
	ChannelParams map[string]float64
	// RadioProfile selects a radio energy profile by name;
	// empty keeps the paper's cost model (see internal/radio).
	RadioProfile string
	// BaseSeed offsets the per-point seed range: each point runs seeds
	// BaseSeed..BaseSeed+Seeds-1. Zero selects 1, the paper's range.
	BaseSeed int64
	// Audit runs every scenario under the cross-layer invariant auditor
	// (pure observation: results are unchanged).
	Audit bool
}

// PaperOptions reproduces the paper's full experimental setting.
func PaperOptions() Options {
	return Options{Duration: 200 * time.Second, Seeds: 5, Nodes: 80}
}

// QuickOptions is a scaled-down setting for tests and benchmarks: same
// topology scale, shorter runs, fewer seeds.
func QuickOptions() Options {
	return Options{Duration: 40 * time.Second, Seeds: 2, Nodes: 80}
}

// EffectiveParallelism returns the worker-pool bound the figure sweeps
// will use for these options: Parallelism, or GOMAXPROCS when unset.
// Benchmarking tools record this rather than re-deriving the default.
func (o Options) EffectiveParallelism() int { return o.normalized().Parallelism }

func (o Options) normalized() Options {
	if o.Duration <= 0 {
		o.Duration = 40 * time.Second
	}
	if o.Seeds <= 0 {
		o.Seeds = 2
	}
	if o.Nodes <= 0 {
		o.Nodes = 80
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BaseSeed <= 0 {
		o.BaseSeed = 1
	}
	return o
}

// Point is one aggregated data point of a figure series: the mean of a
// metric over N seeds with its 90% confidence half-width. With N < 2
// there is no interval (CI90 is 0), and Fprint prints the sample count
// instead.
type Point struct {
	X    float64
	Mean float64
	CI90 float64
	N    int
}

// Series is a named sequence of points (one line in a figure).
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/figure: a set of series over a labeled
// x-axis, ready to print.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries reproduction caveats the figure reports.
	Notes []string
	// Work totals the simulation runs behind the figure; it is not
	// printed.
	Work
}

// Work totals the simulation work of a figure's run grid: the runs it
// executed, the events they fired and the simulated time they covered.
type Work struct {
	Runs    int
	Events  uint64
	SimTime time.Duration
}

// Fprint renders the figure as an aligned text table, one row per x value.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	// Claim an interval only where a cell prints one.
	spread := ""
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.N >= 2 {
				spread = ", mean ± 90% CI over seeds"
			}
		}
	}
	fmt.Fprintf(w, "   (y = %s%s)\n", f.YLabel, spread)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintln(w)

	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	for _, x := range sorted {
		fmt.Fprintf(w, "%-12.3g", x)
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					if p.N < 2 {
						cell = fmt.Sprintf("%10.3f %9s", p.Mean, fmt.Sprintf("n=%d", p.N))
					} else {
						cell = fmt.Sprintf("%10.3f ±%8.3f", p.Mean, p.CI90)
					}
					break
				}
			}
			fmt.Fprintf(w, " %22s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// runJob is one scenario execution in a figure's job grid.
type runJob struct {
	sc  Scenario
	res *Result
	err error
}

// runGrid executes jobs on a bounded worker pool of o.Parallelism
// goroutines (each Run is single-goroutine and independent, so the whole
// (figure, variant, x, seed) grid parallelizes). Results land in the job
// slots, so downstream aggregation happens in the caller's deterministic
// order regardless of worker count; the first error in job order wins.
func runGrid(o Options, jobs []*runJob) error {
	workers := o.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Each worker owns one arena (engine + memory pools reused across the
	// runs it picks up); all workers share one deployment cache. Job →
	// worker assignment is dynamic and therefore nondeterministic under
	// parallelism, which is safe precisely because every run's result is
	// independent of its arena's history.
	cache := NewDeployCache(0)
	runOne := func(a *Arena, j *runJob) {
		if j.res, j.err = RunContextWith(context.Background(), a, j.sc, Budget{}); j.err == nil {
			j.err = auditErr(j.res)
		}
	}
	if workers <= 1 {
		a := NewArenaWithCache(cache)
		for _, j := range jobs {
			runOne(a, j)
			if j.err != nil {
				return j.err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArenaWithCache(cache)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runOne(a, jobs[i])
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// auditErr surfaces invariant violations from an audited run as a hard
// error: a figure regenerated from a rule-breaking simulation is not
// data. Unaudited runs (Options.Audit off) always pass.
func auditErr(res *Result) error {
	if res.Audit == nil || res.Audit.Total == 0 {
		return nil
	}
	return fmt.Errorf("experiment: %s seed %d: %d invariant violations, first: %s",
		res.Protocol, res.Seed, res.Audit.Total, res.Audit.Violations[0])
}

func (o Options) scenario(p Protocol, seed int64) Scenario {
	sc := DefaultScenario(p, seed)
	sc.Duration = o.Duration
	sc.Topology.NumNodes = o.Nodes
	sc.Topology.Generator = o.Topology
	sc.Topology.Params = o.TopologyParams
	sc.Propagation = o.Channel
	sc.PropagationParams = o.ChannelParams
	sc.RadioProfile = o.RadioProfile
	sc.Audit = o.Audit
	if sc.MeasureFrom >= sc.Duration {
		sc.MeasureFrom = sc.Duration / 5
	}
	return sc
}

// rateWorkload gives sc the paper's three query classes at base rate
// Hz, one query per class, with start phases drawn from seed·7919.
func rateWorkload(sc *Scenario, rate float64) {
	sc.Queries = QueryClasses(rand.New(rand.NewSource(sc.Seed*7919)), rate, 1, 10*time.Second)
}

// countWorkload gives sc perClass queries in each of the three classes
// at a 0.2 Hz base rate, with start phases drawn from seed·104729.
func countWorkload(sc *Scenario, perClass float64) {
	sc.Queries = QueryClasses(rand.New(rand.NewSource(sc.Seed*104729)), 0.2, int(perClass), 10*time.Second)
}

// A sweep declares one catalog figure: its grid — every variant at
// every x value and seed — and the fold from the grid's results to the
// figure's series.
type sweep struct {
	id, title      string
	study          bool
	xLabel, yLabel string
	notes          []string
	// protocol is every run's protocol unless a variant sets its own.
	protocol Protocol
	// variants are the grid's rows; nil is one unnamed row.
	variants []variant
	// xs are the grid's columns, and at sets one on a run's scenario.
	xs []float64
	at func(sc *Scenario, x float64)
	// fold appends the figure's series; cells[v][i] holds variant v's
	// runs at xs[i] in seed order.
	fold func(s *sweep, fig *Figure, cells [][][]*runJob) error
}

// A variant is one row of a sweep's grid: a name and what it changes
// in the scenario (nil: nothing).
type variant struct {
	name string
	set  func(*Scenario)
}

// protocols makes one variant per protocol, named after it.
func protocols(ps ...Protocol) []variant {
	vs := make([]variant, len(ps))
	for i, p := range ps {
		p := p
		vs[i] = variant{string(p), func(sc *Scenario) { sc.Protocol = p }}
	}
	return vs
}

// breakEven is a variant's Safe Sleep break-even time.
func breakEven(tbe time.Duration) func(*Scenario) {
	return func(sc *Scenario) { sc.SSBreakEven = tbe }
}

// scenario builds the run of variant v at x and seed.
func (s *sweep) scenario(o Options, v variant, x float64, seed int64) Scenario {
	sc := o.scenario(s.protocol, seed)
	if v.set != nil {
		v.set(&sc)
	}
	s.at(&sc, x)
	return sc
}

// run executes the sweep's grid on o's worker pool and folds the
// results into its figure, with the grid's work totals.
func (s sweep) run(o Options) (*Figure, error) {
	o = o.normalized()
	if s.variants == nil {
		s.variants = []variant{{}}
	}
	var jobs []*runJob
	cells := make([][][]*runJob, len(s.variants))
	for v, vr := range s.variants {
		cells[v] = make([][]*runJob, len(s.xs))
		for i, x := range s.xs {
			for k := 0; k < o.Seeds; k++ {
				j := &runJob{sc: s.scenario(o, vr, x, o.BaseSeed+int64(k))}
				cells[v][i] = append(cells[v][i], j)
				jobs = append(jobs, j)
			}
		}
	}
	if err := runGrid(o, jobs); err != nil {
		return nil, err
	}
	// The notes are copied: a caller may edit its figure, never the catalog.
	fig := &Figure{ID: s.id, Title: s.title, XLabel: s.xLabel, YLabel: s.yLabel,
		Notes: append([]string(nil), s.notes...)}
	for _, j := range jobs {
		fig.Runs++
		fig.Events += j.res.Events
		fig.SimTime += j.sc.Duration
	}
	if err := s.fold(&s, fig, cells); err != nil {
		return nil, err
	}
	return fig, nil
}

// A metric is one measure of a run. A series folded by means is named
// by its variant followed by its metric.
type metric struct {
	name  string
	value func(sc *Scenario, r *Result) float64
}

func (m metric) as(name string) metric {
	m.name = name
	return m
}

var (
	duty    = metric{value: func(_ *Scenario, r *Result) float64 { return r.DutyCycle * 100 }}
	latency = metric{value: func(_ *Scenario, r *Result) float64 { return r.Latency.Mean.Seconds() }}
)

// means folds every cell into the mean of each metric over its seeds:
// one series per metric and variant, metric-major.
func means(ms ...metric) func(*sweep, *Figure, [][][]*runJob) error {
	return func(s *sweep, fig *Figure, cells [][][]*runJob) error {
		for _, m := range ms {
			for v, row := range cells {
				ser := Series{Name: s.variants[v].name + m.name}
				for i, runs := range row {
					var w stats.Welford
					for _, j := range runs {
						w.Add(m.value(&j.sc, j.res))
					}
					ser.Points = append(ser.Points, point(s.xs[i], &w))
				}
				fig.Series = append(fig.Series, ser)
			}
		}
		return nil
	}
}

func point(x float64, w *stats.Welford) Point {
	return Point{X: x, Mean: w.Mean(), CI90: w.CI90(), N: w.N()}
}

// byRank folds each variant's runs at its one x into duty cycle by tree
// rank, pooling every seed's nodes of a rank into one point. A rank
// that only one seed's tree reaches is a single sample.
func byRank(s *sweep, fig *Figure, cells [][][]*runJob) error {
	for v, row := range cells {
		ranks := make(map[int]*stats.Welford)
		for _, j := range row[0] {
			for r, d := range j.res.DutyByRank {
				if ranks[r] == nil {
					ranks[r] = &stats.Welford{}
				}
				ranks[r].Add(d * 100)
			}
		}
		sorted := make([]int, 0, len(ranks))
		for r := range ranks {
			sorted = append(sorted, r)
		}
		sort.Ints(sorted)
		ser := Series{Name: s.variants[v].name}
		for _, r := range sorted {
			ser.Points = append(ser.Points, point(float64(r), ranks[r]))
		}
		fig.Series = append(fig.Series, ser)
	}
	return nil
}

// sleepHistogram folds each variant's runs at its one x into a
// histogram of sleep intervals in 25 ms bins up to 200 ms. Each bin is
// one count pooled over every seed, not a mean over seeds: a single
// sample with no interval. The note gives each variant's share of
// sleeps shorter than the MICA2 break-even time (2.5 ms).
func sleepHistogram(s *sweep, fig *Figure, cells [][][]*runJob) error {
	note := "% of sleeps < 2.5 ms:"
	for v, row := range cells {
		hist, err := stats.NewHistogram(25*time.Millisecond, 8)
		if err != nil {
			return err
		}
		for _, j := range row[0] {
			for _, d := range j.res.SleepIntervals {
				hist.Add(d)
			}
		}
		ser := Series{Name: s.variants[v].name}
		for i, c := range hist.Counts() {
			ser.Points = append(ser.Points, Point{
				X:    (time.Duration(i+1) * hist.BinWidth()).Seconds() * 1000,
				Mean: float64(c),
				N:    1,
			})
		}
		fig.Series = append(fig.Series, ser)
		note += fmt.Sprintf(" %s=%.2f%%", ser.Name, hist.FractionBelow(2500*time.Microsecond)*100)
	}
	fig.Notes = append(fig.Notes, note+" (paper: 6.33 / 0.85 / 0.40)")
	return nil
}

// FigureInfo is one FigureCatalog entry: a figure's ID and the title
// it prints, whether it is an ablation or robustness study rather than
// one of the paper's figures, and Run, which executes its declared grid.
type FigureInfo struct {
	ID    string
	Title string
	Study bool
	Run   func(Options) (*Figure, error)
}

// FigureCatalog lists every figure and study this package can
// regenerate, in presentation order: the paper's figures first, then
// the studies.
func FigureCatalog() []FigureInfo {
	out := make([]FigureInfo, len(figures))
	for i, s := range figures {
		out[i] = FigureInfo{ID: s.id, Title: s.title, Study: s.study, Run: s.run}
	}
	return out
}

var (
	// rates is the base-rate axis of Figures 3, 6 and 9 and the
	// overhead measurement; counts the queries-per-class axis of
	// Figures 4 and 7.
	rates  = []float64{1, 2, 3, 4, 5}
	counts = []float64{1, 2, 4, 6, 8, 10}
	// The studies sweep fewer rates.
	studyRates = []float64{1, 3, 5}
	// SYNC is omitted from the duty figures as in the paper: it is 20%
	// by construction.
	dutyProtocols    = protocols(DTSSS, STSSS, NTSSS, PSM, SPAN)
	latencyProtocols = protocols(DTSSS, STSSS, NTSSS, PSM, SPAN, SYNC)
	essatProtocols   = protocols(DTSSS, STSSS, NTSSS)
)

// figures is the catalog's one list, in presentation order.
var figures = []sweep{
	// Figure 2: the impact of the STS query deadline on STS-SS duty
	// cycle and query latency, with three queries running. The paper
	// observes a knee near D ≈ 0.12 s: below it latency is flat while
	// duty falls; above it latency grows linearly with no duty gain.
	{
		id: "fig2", title: "Impact of query deadline on duty cycle and query latency of STS-SS",
		xLabel: "deadline (s)", yLabel: "duty cycle (%) / latency (s)",
		protocol: STSSS,
		xs:       []float64{0.05, 0.125, 0.2, 0.275, 0.35, 0.425, 0.5, 0.575, 0.65, 0.725, 0.8},
		at: func(sc *Scenario, d float64) {
			rateWorkload(sc, 1)
			sc.STSDeadline = time.Duration(math.Round(d * float64(time.Second)))
		},
		fold: means(duty.as("duty cycle (%)"), latency.as("query latency (s)")),
	},
	// Figure 3: average duty cycle for three query classes as the base
	// rate varies from 1 to 5 Hz.
	{
		id: "fig3", title: "Average duty cycle for three query classes when varying base rate",
		xLabel: "base rate (Hz)", yLabel: "duty cycle (%)",
		notes:    []string{"SYNC is fixed at 20% duty by construction and omitted, as in the paper"},
		variants: dutyProtocols, xs: rates, at: rateWorkload, fold: means(duty),
	},
	// Figure 4: average duty cycle at a fixed 0.2 Hz base rate as the
	// number of queries per class grows.
	{
		id: "fig4", title: "Average duty cycle for three query classes when varying number of queries per class",
		xLabel: "queries/class", yLabel: "duty cycle (%)",
		variants: dutyProtocols, xs: counts, at: countWorkload, fold: means(duty),
	},
	// Figure 5: the distribution of duty cycles across tree ranks for
	// the three ESSAT protocols at a 5 Hz base rate. NTS-SS grows
	// linearly with rank (Eq. 1). STS-SS and DTS-SS rise with rank as
	// well (at paper scale from 16.7/16.3% at the leaves to 50.8/50.2%
	// at rank 5), so the shape test checks only that NTS-SS's slope is
	// steeper than DTS-SS's.
	{
		id: "fig5", title: "Distribution of duty cycles at different ranks (base rate 5 Hz)",
		xLabel: "rank (0=leaf)", yLabel: "duty cycle (%)",
		variants: essatProtocols, xs: []float64{5}, at: rateWorkload, fold: byRank,
	},
	// Figure 6: average query latency as the base rate varies (the
	// paper plots it on a log scale).
	{
		id: "fig6", title: "Query latency for three query classes when varying base rate",
		xLabel: "base rate (Hz)", yLabel: "query latency (s)",
		notes:    []string{"SYNC saturates at high rates (queueing): latencies grow with run length"},
		variants: latencyProtocols, xs: rates, at: rateWorkload, fold: means(latency),
	},
	// Figure 7: average query latency at a 0.2 Hz base rate as the
	// number of queries per class grows.
	{
		id: "fig7", title: "Query latency for three query classes when varying the number of queries per class",
		xLabel: "queries/class", yLabel: "query latency (s)",
		variants: latencyProtocols, xs: counts, at: countWorkload, fold: means(latency),
	},
	// Figure 8: the histogram of sleep-interval lengths at a 5 Hz base
	// rate with TBE = 0 and instantaneous radio transitions, for the
	// three ESSAT protocols. The paper reads off the fraction of
	// intervals shorter than the MICA2 break-even time (2.5 ms): 0.40%
	// for NTS-SS, 0.85% for STS-SS and 6.33% for DTS-SS.
	{
		id: "fig8", title: "Histogram of sleep intervals (TBE=0, base rate 5 Hz)",
		xLabel: "sleep length (ms)", yLabel: "count per 25 ms bin, pooled over seeds",
		variants: essatProtocols, xs: []float64{5},
		at: func(sc *Scenario, rate float64) {
			rateWorkload(sc, rate)
			sc.SSBreakEven = 0
			sc.RadioCfg = &radio.Config{}
			sc.RecordSleepIntervals = true
		},
		fold: sleepHistogram,
	},
	// Figure 9: DTS-SS duty cycle versus base rate for Safe Sleep
	// break-even times of 0, 2.5, 10 and 40 ms. The figure's caption
	// says STS-SS, but the surrounding text analyzes DTS-SS, the
	// protocol most sensitive to TBE; the sweep follows the text.
	{
		id: "fig9", title: "Impact of break-even time on DTS-SS duty cycle",
		xLabel: "base rate (Hz)", yLabel: "duty cycle (%)",
		protocol: DTSSS,
		variants: []variant{
			{"TBE=0s", breakEven(0)},
			{"TBE=2.5ms", breakEven(2500 * time.Microsecond)},
			{"TBE=10ms", breakEven(10 * time.Millisecond)},
			{"TBE=40ms", breakEven(40 * time.Millisecond)},
		},
		xs: rates, at: rateWorkload, fold: means(duty),
	},
	// §4.2.3: DTS's phase-update overhead in piggybacked bits per data
	// report across query rates (the paper reports less than one bit
	// per report).
	{
		id: "overhead", title: "DTS phase-update overhead (§4.2.3; paper: <1 bit per data report)",
		xLabel: "base rate (Hz)", yLabel: "piggybacked bits per data report",
		protocol: DTSSS, xs: rates, at: rateWorkload,
		fold: means(metric{"DTS-SS phase bits/report",
			func(_ *Scenario, r *Result) float64 { return r.PhaseUpdateBitsPerReport }}),
	},

	// The ablation studies isolate the design choices DESIGN.md calls
	// out: the Safe Sleep break-even guard, the shapers' early-report
	// buffering, and the flood-vs-BFS tree construction. In each, the
	// paper's variant changes nothing.
	//
	// The guard: DTS-SS with tBE = the radio's real break-even time
	// against a naive scheduler that sleeps through any free gap
	// (tBE = 0) on the same MICA2-like radio. Without the guard, short
	// sleeps cost more energy than they save and late wake-ups turn
	// into MAC retries.
	{
		id: "ablation-guard", study: true,
		title:  "Safe Sleep break-even guard vs naive sleep-any-gap (DTS-SS duty cycle)",
		xLabel: "base rate (Hz)", yLabel: "duty cycle (%)",
		protocol: DTSSS,
		variants: []variant{{name: "guarded (tBE=radio)"}, {"naive (tBE=0)", breakEven(0)}},
		xs:       studyRates, at: rateWorkload, fold: means(duty),
	},
	// Buffering: DTS-SS with and without holding early reports until
	// their expected send time. Buffering keeps senders aligned with
	// their parents' wake-ups; without it, early transmissions find
	// sleeping receivers and burn retries (MAC failures per 1000 sends,
	// beside the duty cost).
	{
		id: "ablation-buffering", study: true,
		title:  "Early-report buffering vs greedy early send (DTS-SS)",
		xLabel: "base rate (Hz)", yLabel: "duty cycle (%) / MAC failures per 1000 sends",
		protocol: DTSSS,
		variants: []variant{
			{name: "buffered (paper)"},
			{"greedy early send", func(sc *Scenario) { sc.NoBuffering = true }},
		},
		xs: studyRates, at: rateWorkload,
		fold: means(duty.as(" duty%"), metric{" fails/1k", func(_ *Scenario, r *Result) float64 {
			total := r.MACSent + r.MACFailed
			if total == 0 {
				return 0
			}
			return float64(r.MACFailed) / float64(total) * 1000
		}}),
	},
	// The tree: DTS-SS on the simulated setup flood's tree (the
	// paper's construction, deeper and less regular) against an
	// idealized min-hop BFS tree.
	{
		id: "ablation-tree", study: true,
		title:  "Setup-flood tree vs idealized BFS tree (DTS-SS duty cycle)",
		xLabel: "base rate (Hz)", yLabel: "duty cycle (%)",
		protocol: DTSSS,
		variants: []variant{
			{name: "flood tree (paper)"},
			{"min-hop BFS tree", func(sc *Scenario) { sc.BFSTree = true }},
		},
		xs: studyRates, at: rateWorkload, fold: means(duty),
	},
	// Transient packet loss (§4.3) for the three ESSAT protocols at a
	// 1 Hz base rate, against root coverage: how much of the network's
	// data still reaches the root per interval, as a share of the tree.
	// DTS pays for its adaptivity with resynchronization traffic but
	// keeps coverage close to NTS/STS.
	{
		id: "robustness-loss", study: true,
		title:  "Root coverage under transient packet loss (§4.3 maintenance)",
		xLabel: "loss rate (%)", yLabel: "root coverage (% of tree)",
		variants: essatProtocols, xs: []float64{0, 5, 10, 20},
		at: func(sc *Scenario, lossPct float64) {
			rateWorkload(sc, 1)
			sc.LossRate = lossPct / 100
			sc.FailureThreshold = 3
		},
		fold: means(metric{" coverage%", func(_ *Scenario, r *Result) float64 {
			return r.Coverage / float64(r.TreeSize) * 100
		}}),
	},
	// A growing number of random non-leaf nodes killed mid-run under
	// DTS-SS, against coverage among survivors: the §4.3 recovery
	// (parent-side dependency removal, child-side re-parenting with
	// Join + phase update) should keep surviving nodes' data flowing.
	{
		id: "robustness-failures", study: true,
		title:  "DTS-SS under mid-run node failures (§4.3 recovery)",
		xLabel: "failed nodes", yLabel: "coverage (% of survivors) / duty cycle (%)",
		notes: []string{
			"values above 100% are expected: victims contribute before dying, and during",
			"re-parent handoffs a report can reach the root via both the old and new parent",
		},
		protocol: DTSSS, xs: []float64{0, 1, 2, 4},
		at: func(sc *Scenario, failures float64) {
			rateWorkload(sc, 1)
			sc.FailureThreshold = 3
			for j := 0; j < int(failures); j++ {
				sc.Failures = append(sc.Failures, Failure{
					At:   sc.Duration/4 + time.Duration(j)*sc.Duration/8,
					Node: -1,
				})
			}
		},
		fold: means(metric{"coverage % of survivors", func(sc *Scenario, r *Result) float64 {
			alive := float64(r.TreeSize - len(sc.Failures))
			if alive <= 0 {
				return 0
			}
			return r.Coverage / alive * 100
		}}, duty.as("duty cycle %")),
	},
	// Network lifetime, the paper's §4.2.1 scalability argument: "large
	// variations in the energy conserved at different nodes limits the
	// lifetime of the network. The nodes close to the root that have
	// higher ranks will run out of energy faster than the others."
	// Every non-root node gets a 0.5 J battery, sized so deaths occur
	// within the run: at a 5 Hz base rate a high-rank NTS-SS node draws
	// a few milliwatts. The x axis numbers the protocols; SPAN's
	// backbone dies almost immediately at this scale. Failure detection
	// is on, so survivors route around the dead.
	{
		id: "lifetime", study: true,
		title:  "Network lifetime with finite batteries (§4.2.1; x: 1=DTS-SS 2=STS-SS 3=NTS-SS 4=SPAN)",
		xLabel: "protocol", yLabel: "first battery death (s) / deaths",
		notes: []string{
			"batteries are deliberately tiny so deaths occur within the run; the paper's",
			"claim is about the ORDER: rank-skewed protocols lose their first node sooner",
		},
		xs: []float64{1, 2, 3, 4},
		at: func(sc *Scenario, x float64) {
			sc.Protocol = []Protocol{DTSSS, STSSS, NTSSS, SPAN}[int(x)-1]
			rateWorkload(sc, 5)
			sc.BatteryJ = 0.5
			sc.FailureThreshold = 3
		},
		fold: means(metric{"first death (s)", func(sc *Scenario, r *Result) float64 {
			if r.FirstDeath == 0 {
				return sc.Duration.Seconds() // survived the whole run
			}
			return r.FirstDeath.Seconds()
		}}, metric{"deaths by run end", func(_ *Scenario, r *Result) float64 { return float64(r.BatteryDeaths) }}),
	},
}
