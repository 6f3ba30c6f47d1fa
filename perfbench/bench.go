package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// bench is the state of one benchmark process.
type bench struct {
	seed   int64
	ref    map[string]string            // reference key → "events:fingerprint"
	golden map[string]map[string]string // testdata/golden.json

	samples   []time.Duration // CPU per run (tier-10k: per batchEvents events)
	opCPU     time.Duration   // CPU of all simulator operations
	events    uint64
	attempted int
	failed    int
	problems  []string

	// Set only for the traced pass.
	tr     *tracer
	layers *layerStats
}

// maxProblems bounds the failure descriptions a run keeps.
const maxProblems = 10

// record counts one operation and checks its output against the
// reference. It fails if the operation returned an error, if its event
// count or fingerprint differs from the reference, or if the reference
// has no entry for it.
func (b *bench) record(key string, events uint64, fp string, err error) {
	want, ok := b.ref[key]
	switch got := refEntry(events, fp); {
	case err != nil:
	case !ok:
		err = fmt.Errorf("no reference entry")
	case got != want:
		err = fmt.Errorf("output %s, reference %s", got, want)
	}
	b.count(key, err)
}

// recordResult records a simulation result under key.
func (b *bench) recordResult(key string, res *experiment.Result, err error) {
	if err != nil {
		b.record(key, 0, "", err)
		return
	}
	fp, err := fingerprint(res)
	b.record(key, res.Events, fp, err)
}

// count counts one operation, failed if err is non-nil.
func (b *bench) count(key string, err error) {
	b.attempted++
	if err == nil {
		return
	}
	b.failed++
	if len(b.problems) < maxProblems {
		b.problems = append(b.problems, key+": "+err.Error())
	}
}

func refEntry(events uint64, fp string) string { return fmt.Sprintf("%d:%s", events, fp) }

// fingerprint hashes a result's JSON encoding without the auditor's
// summary, so an audited and an unaudited run of one scenario agree.
func fingerprint(res *experiment.Result) (string, error) {
	r := *res
	r.Audit = nil
	data, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// guard runs fn and turns a panic into an error, closing any span fn
// left open, so one broken run counts as a failed operation instead of
// ending the benchmark.
func (b *bench) guard(fn func() error) (err error) {
	depth := 0
	if b.tr != nil {
		depth = len(b.tr.open)
	}
	defer func() {
		if r := recover(); r != nil {
			for b.tr != nil && len(b.tr.open) > depth {
				b.tr.end()
			}
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// build builds sc on arena (nil for a fresh engine) inside a span.
func (b *bench) build(arena *experiment.Arena, sc experiment.Scenario) (s *experiment.Sim, err error) {
	err = b.guard(func() error {
		b.tr.begin("experiment.build")
		s, err = experiment.BuildWith(arena, sc)
		b.tr.end()
		return err
	})
	return s, err
}

// simulate runs a built simulation with obs (which may be nil) attached
// to its engine, inside a span.
func (b *bench) simulate(s *experiment.Sim, obs sim.Observer) error {
	return b.guard(func() error {
		if obs != nil {
			s.Eng.SetObserver(obs)
		}
		b.tr.begin("experiment.simulate")
		s.Simulate()
		b.tr.end()
		return nil
	})
}

// collect collects a simulated run's result inside a span.
func (b *bench) collect(s *experiment.Sim) (res *experiment.Result, err error) {
	err = b.guard(func() error {
		b.tr.begin("experiment.collect")
		res = s.Collect()
		b.tr.end()
		return nil
	})
	return res, err
}

// pendingObserver is a pure engine observer that averages the number of
// live events over every fired event.
type pendingObserver struct {
	eng *sim.Engine
	sum float64
	n   uint64
}

func (o *pendingObserver) EventFired(time.Duration, uint64) {
	o.sum += float64(o.eng.Pending())
	o.n++
}

// observer returns a pending-event observer for s during the traced
// pass, and nil otherwise.
func (b *bench) observer(s *experiment.Sim) *pendingObserver {
	if b.layers == nil {
		return nil
	}
	return &pendingObserver{eng: s.Eng}
}

// layerStats accumulates the traced pass's per-layer counters.
type layerStats struct {
	runs int
	ch   phy.Stats
	macSent, macFailed, macRetries, timeouts,
	phaseShifts uint64
	coverage float64 // sum of per-run coverage ÷ tree size

	pendSum float64
	pendN   uint64

	cacheHits, cacheLookups uint64

	topo, tree    []time.Duration    // deployment build times
	serveOverhead []time.Duration    // handler CPU minus replayed stages
	nsPerEvent    map[string]float64 // engine microbenchmark, by tier name
}

// add folds one run's result into the counters (nil results are skipped).
func (l *layerStats) add(res *experiment.Result) {
	if l == nil || res == nil {
		return
	}
	l.runs++
	l.ch.Add(res.Channel)
	l.macSent += res.MACSent
	l.macFailed += res.MACFailed
	l.macRetries += res.MACRetries
	l.timeouts += res.Timeouts
	l.phaseShifts += res.PhaseShifts
	if res.TreeSize > 0 {
		l.coverage += res.Coverage / float64(res.TreeSize)
	}
}

// addPending folds a pending observer's average in, weighted by events.
func (l *layerStats) addPending(o *pendingObserver) {
	if l == nil || o == nil {
		return
	}
	l.pendSum += o.sum
	l.pendN += o.n
}

// timeDeployment times the public placement and tree-construction calls
// that Build makes for sc's deployment.
func (l *layerStats) timeDeployment(sc experiment.Scenario) error {
	prop, err := phy.NewPropagation(sc.Propagation, sc.PropagationParams)
	if err != nil {
		return err
	}
	cfg := sc.Topology
	cfg.NeighborRange = prop.MaxRange(cfg.Range)
	c0 := cpuNow()
	topo, err := topology.New(rand.New(rand.NewSource(sc.Seed)), cfg)
	if err != nil {
		return err
	}
	c1 := cpuNow()
	root := topo.CentralNode()
	if sc.BFSTree {
		_, err = routing.BuildBFS(topo, root, sc.TreeMaxDist)
	} else {
		fcfg := routing.DefaultFloodConfig()
		fcfg.MaxDist = sc.TreeMaxDist
		fcfg.ChannelCfg.Propagation = prop
		if !phy.IsDisc(prop) {
			fcfg.Rounds = 3
		}
		_, err = routing.BuildFlood(sc.Seed+1, topo, root, fcfg)
	}
	if err != nil {
		return err
	}
	l.topo = append(l.topo, c1-c0)
	l.tree = append(l.tree, cpuNow()-c1)
	return nil
}

// layerCPUShares lists the layers whose leaf-frame CPU share the traced
// run reports from the traced pass: the repository's packages on the
// per-event path, the experiment stages, and the Go runtime.
var layerCPUShares = []string{
	"sim", "phy", "mac", "core", "radio", "query", "node", "routing",
	"topology", "baseline", "dynamics", "experiment", "runtime",
}

// probeCPUShares lists the observer layers whose share comes from the
// audited serve probe instead: the workloads run them nowhere else.
var probeCPUShares = []string{"check", "stats"}

// metrics assembles the per-layer metrics BENCHMARK.json declares.
func (l *layerStats) metrics(shares, probeShares map[string]float64, self map[string][]time.Duration,
	tracedCPU, untracedCPU time.Duration, gc1, gc0 gcReading) map[string]metric {
	out := map[string]metric{}
	for _, layer := range layerCPUShares {
		out[layer+".cpu_share"] = metric{shares[layer], "share"}
	}
	for _, layer := range probeCPUShares {
		out[layer+".cpu_share"] = metric{probeShares[layer], "share"}
	}
	for _, t := range engineTiers {
		out["sim.ns_per_event_"+t.name] = metric{l.nsPerEvent[t.name], "ns"}
	}
	out["sim.pending_mean"] = metric{ratio(l.pendSum, float64(l.pendN)), "count"}

	tx := float64(l.ch.Transmissions)
	runs := float64(l.runs)
	out["phy.tx"] = metric{ratio(tx, runs), "count"}
	out["phy.deliveries_per_tx"] = metric{ratio(float64(l.ch.Deliveries), tx), "ratio"}
	out["phy.collisions_per_tx"] = metric{ratio(float64(l.ch.Collisions), tx), "ratio"}
	out["phy.missed_asleep"] = metric{ratio(float64(l.ch.MissedAsleep), runs), "count"}

	sent := float64(l.macSent)
	out["mac.retries_per_sent"] = metric{ratio(float64(l.macRetries), sent), "ratio"}
	out["mac.failed_per_sent"] = metric{ratio(float64(l.macFailed), sent), "ratio"}
	out["mac.timeouts"] = metric{ratio(float64(l.timeouts), runs), "count"}

	out["core.phase_shifts"] = metric{ratio(float64(l.phaseShifts), runs), "count"}
	out["query.coverage_ratio"] = metric{ratio(l.coverage, runs), "ratio"}

	out["topology.build_ms"] = metric{ms(median(l.topo)), "ms"}
	out["routing.tree_ms"] = metric{ms(median(l.tree)), "ms"}
	for _, stage := range []string{"parse", "build", "simulate", "collect"} {
		out["experiment."+stage+"_ms"] = metric{ms(median(self["experiment."+stage])), "ms"}
	}
	out["experiment.deploy_cache_hit_share"] = metric{ratio(float64(l.cacheHits), float64(l.cacheLookups)), "share"}
	out["serve.overhead_ms"] = metric{ms(median(l.serveOverhead)), "ms"}

	out["gc.cpu_share"] = metric{ratio(gc1.cpu-gc0.cpu, tracedCPU.Seconds()), "share"}
	out["gc.cycles"] = metric{float64(gc1.cycles - gc0.cycles), "count"}
	out["trace.overhead_share"] = metric{ratio((tracedCPU - untracedCPU).Seconds(), untracedCPU.Seconds()), "share"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mod returns x mod n in [0, n).
func mod(x, n int64) int64 { return (x%n + n) % n }
