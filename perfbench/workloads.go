package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/serve"
	"github.com/essat/essat/internal/sim"
)

// A workload is one named input set. Pass k of a run derives its inputs
// from the run's seed and k, so one seed always yields the same inputs.
// The inputs come from small families (gridSeeds, hugeSeeds) so that
// reference.json can hold the expected output of every one, and the
// families are chosen so that every seed measures the same amount of
// work: paper-grid runs its whole family in a seed-shuffled order, and
// tier-10k's seeds share one traffic schedule. (A seed-drawn 80-node placement or 10k-node query
// schedule moves a run's event count by up to 40%, more than any bound
// the benchmark could keep.)
type workload struct {
	name string
	// passCPU is the nominal CPU cost of one pass, measured on a 2-vCPU
	// shared virtual machine; --seconds buys passes at this price.
	passCPU time.Duration
	// setup prepares pass k, up to the pass's first simulated event,
	// and returns the function that runs and verifies the pass.
	setup func(b *bench, k int) (func(), error)
	// crossCheck, when set, reruns after every run's passes, under the
	// invariant auditor, the inputs whose configuration
	// testdata/golden.json pins, and checks the golden digest and the
	// reference entry of each.
	crossCheck func(b *bench)
	// probe takes the traced run's measurements that need calls beyond
	// the traced pass k.
	probe func(b *bench, k int) error
}

var workloads = []workload{
	{
		name:       "paper-grid",
		passCPU:    22 * time.Second,
		setup:      (*bench).gridSetup,
		crossCheck: (*bench).gridCrossCheck,
		probe:      (*bench).gridProbe,
	},
	{
		name:    "tier-10k",
		passCPU: 12 * time.Second,
		setup:   (*bench).hugeSetup,
		probe:   (*bench).hugeProbe,
	},
}

// --- paper-grid: the Fig. 6 grid at the paper's 80-node scale ---

var (
	gridProtocols = []experiment.Protocol{
		experiment.DTSSS, experiment.STSSS, experiment.NTSSS,
		experiment.SPAN, experiment.PSM, experiment.SYNC,
	}
	gridRates = []float64{1, 2, 3, 4, 5}
)

const (
	gridDuration = 20 * time.Second // the golden suite's fig6 run length
	gridSeeds    = 8                // a pass runs the grid for seeds 1..gridSeeds
	// gridProbeRuns is how many of the traced pass's runs the serve
	// probe posts.
	gridProbeRuns = 30
)

// order is the seed-shuffled order in which pass k runs n inputs.
func order(seed int64, k, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k))).Perm(n)
}

// gridScenario builds one run of the grid the way
// experiment.Fig6LatencyVsRate does.
func gridScenario(p experiment.Protocol, rate float64, seed int64) experiment.Scenario {
	sc := experiment.DefaultScenario(p, seed)
	sc.Duration = gridDuration
	if sc.MeasureFrom >= sc.Duration {
		sc.MeasureFrom = sc.Duration / 5
	}
	sc.Queries = experiment.QueryClasses(rand.New(rand.NewSource(seed*7919)), rate, 1, 10*time.Second)
	return sc
}

// gridSpec is gridScenario as a declarative spec, for the serve probe.
func gridSpec(p experiment.Protocol, rate float64, seed int64) *experiment.Spec {
	return &experiment.Spec{
		Protocol: string(p),
		Seed:     seed,
		Duration: experiment.Dur(gridDuration),
		Workload: &experiment.WorkloadSpec{BaseRate: rate, PerClass: 1, PhaseMax: experiment.Dur(10 * time.Second)},
	}
}

func gridKey(p experiment.Protocol, rate float64, seed int64) string {
	return fmt.Sprintf("paper-grid/%s/rate=%g/seed=%d", p, rate, seed)
}

type gridJob struct {
	key  string
	rate float64
	sc   experiment.Scenario
}

// gridJobs lists pass k's runs: the Fig. 6 grid for seeds 1..gridSeeds,
// the job set experiment.Fig6LatencyVsRate runs with that many seeds, in
// a seed-shuffled order.
func gridJobs(seed int64, k int, tr *tracer) []gridJob {
	var jobs []gridJob
	for _, p := range gridProtocols {
		for _, rate := range gridRates {
			for s := int64(1); s <= gridSeeds; s++ {
				tr.begin("experiment.parse")
				sc := gridScenario(p, rate, s)
				tr.end()
				jobs = append(jobs, gridJob{gridKey(p, rate, s), rate, sc})
			}
		}
	}
	shuffled := make([]gridJob, len(jobs))
	for i, j := range order(seed, k, len(jobs)) {
		shuffled[i] = jobs[j]
	}
	return shuffled
}

// gridSetup builds pass k's job list and prepares it with gridPass.
func (b *bench) gridSetup(k int) (func(), error) {
	return b.gridPass(gridJobs(b.seed, k, b.tr)), nil
}

// gridPass prepares jobs on one arena with a deployment cache (as
// experiment.Fig6LatencyVsRate gives a worker), builds the first run,
// and returns the function that runs and verifies them all.
func (b *bench) gridPass(jobs []gridJob) func() {
	cache := experiment.NewDeployCache(0)
	arena := experiment.NewArenaWithCache(cache)
	c0 := cpuNow()
	first, firstErr := b.build(arena, jobs[0].sc)
	firstBuild := cpuNow() - c0
	return func() {
		for i, j := range jobs {
			c0 := cpuNow()
			b.tr.begin("run")
			s, err := first, firstErr
			if i > 0 {
				s, err = b.build(arena, j.sc)
			}
			var res *experiment.Result
			if err == nil {
				var obs sim.Observer // nil outside the traced pass: no per-event call
				pend := b.observer(s)
				if pend != nil {
					obs = pend
				}
				if err = b.simulate(s, obs); err == nil {
					res, err = b.collect(s)
				}
				b.layers.addPending(pend)
			}
			b.tr.end()
			d := cpuNow() - c0
			if i == 0 {
				d += firstBuild
			}
			b.samples = append(b.samples, d)
			b.opCPU += d
			if res != nil {
				b.events += res.Events
			}
			b.recordResult(j.key, res, err)
			b.layers.add(res)
		}
		if b.layers != nil {
			hits, misses := cache.Stats()
			b.layers.cacheHits += hits
			b.layers.cacheLookups += hits + misses
		}
	}
}

// gridCrossCheck reruns seed 1 at rates 1 and 5, the configurations the
// golden suite's fig6 entries pin, under the auditor.
func (b *bench) gridCrossCheck() {
	for _, rate := range []float64{1, 5} {
		for _, p := range gridProtocols {
			sc := gridScenario(p, rate, 1)
			sc.Audit = true
			label := string(p) + "/rate=" + strconv.Itoa(int(rate))
			b.auditedCheck(gridKey(p, rate, 1), b.golden["fig6"][label], sc)
		}
	}
}

// auditedCheck runs sc under the auditor and records one operation that
// fails unless the run is violation-free, its trace digest equals the
// golden digest, and its output equals the reference entry for key.
func (b *bench) auditedCheck(key, golden string, sc experiment.Scenario) {
	res, err := experiment.Run(sc)
	var fp string
	if err == nil {
		fp, err = fingerprint(res)
	}
	switch {
	case err != nil:
	case golden == "":
		err = fmt.Errorf("no golden digest")
	case res.Audit == nil:
		err = fmt.Errorf("audited run has no audit summary")
	case res.Audit.Total != 0:
		err = fmt.Errorf("%d invariant violations", res.Audit.Total)
	case res.Audit.Digest != golden:
		err = fmt.Errorf("trace digest %s, golden %s", res.Audit.Digest, golden)
	case refEntry(res.Events, fp) != b.ref[key]:
		err = fmt.Errorf("output %s, reference %q", refEntry(res.Events, fp), b.ref[key])
	}
	b.count(key+" (audited)", err)
}

// gridProbe times the deployment builds of pass k's scenarios and posts
// its first gridProbeRuns runs as specs through the serve handler.
func (b *bench) gridProbe(k int) error {
	var reqs []request
	for i, j := range gridJobs(b.seed, k, nil) {
		if err := b.layers.timeDeployment(j.sc); err != nil {
			return err
		}
		if i >= gridProbeRuns {
			continue
		}
		spec := gridSpec(j.sc.Protocol, j.rate, j.sc.Seed)
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{j.key, body})
	}
	return b.serveProbe(reqs)
}

// --- tier-10k: testdata/huge.json, one 10,000-node sequential run ---

const (
	hugePath     = "testdata/huge.json"
	hugeDuration = 5 * time.Second // the golden suite's huge.json/5s-smoke length
	hugeSeeds    = 8
	// hugePhaseSeed draws the query phases of every tier-10k seed: the
	// draw huge.json's own seed 1 makes, so seed 1 is the checked-in run.
	hugePhaseSeed = 7919
	// batchEvents divides a tier-10k run into the event batches whose
	// CPU times are its run_p50_ms and run_tail_ms samples.
	batchEvents = 10_000
	// hugeProbeDuration shortens the serve probe's runs: the probe
	// measures the handler's own cost, which does not grow with it.
	hugeProbeDuration = 200 * time.Millisecond
	hugeProbeRuns     = 3
)

func hugeSimSeed(seed int64, k int) int64 { return 1 + mod(seed+int64(k), hugeSeeds) }

func hugeKey(seed int64) string { return fmt.Sprintf("tier-10k/seed=%d", seed) }

// hugeSpec loads testdata/huge.json with the given seed and run length.
// The seed moves the placement jitter and every protocol draw; the
// query phases stay seed 1's.
func hugeSpec(seed int64, d time.Duration) (*experiment.Spec, error) {
	spec, err := experiment.LoadSpec(hugePath)
	if err != nil {
		return nil, err
	}
	if spec.Workload == nil {
		return nil, fmt.Errorf("%s: no workload block", hugePath)
	}
	spec.Seed = seed
	spec.Workload.Seed = hugePhaseSeed
	spec.Duration = experiment.Dur(d)
	return spec, nil
}

// hugeSetup loads the spec and builds the 10k-node simulation.
func (b *bench) hugeSetup(k int) (func(), error) {
	simSeed := hugeSimSeed(b.seed, k)
	b.tr.begin("experiment.parse")
	spec, err := hugeSpec(simSeed, hugeDuration)
	var sc experiment.Scenario
	if err == nil {
		sc, err = spec.Scenario()
	}
	b.tr.end()
	if err != nil {
		return nil, err
	}
	c0 := cpuNow()
	s, buildErr := b.build(nil, sc)
	build := cpuNow() - c0
	return func() {
		b.tr.begin("run")
		c0 := cpuNow()
		var res *experiment.Result
		err := buildErr
		if err == nil {
			sl := &batcher{last: c0, pending: b.observer(s)}
			if err = b.simulate(s, sl); err == nil {
				b.samples = append(b.samples, sl.samples...)
				res, err = b.collect(s)
			}
			b.layers.addPending(sl.pending)
		}
		b.tr.end()
		b.opCPU += build + cpuNow() - c0
		if res != nil {
			b.events += res.Events
		}
		b.recordResult(hugeKey(simSeed), res, err)
		b.layers.add(res)
	}, nil
}

// batcher is a pure engine observer that records the CPU time of every
// batchEvents consecutive events. A last partial batch is not recorded,
// as its CPU time covers fewer events.
type batcher struct {
	n       int
	last    time.Duration // CPU time at the start of the current batch
	samples []time.Duration
	pending *pendingObserver // set in the traced pass
}

func (o *batcher) EventFired(at time.Duration, seq uint64) {
	if o.n++; o.n == batchEvents {
		now := cpuNow()
		o.samples = append(o.samples, now-o.last)
		o.last, o.n = now, 0
	}
	if o.pending != nil {
		o.pending.EventFired(at, seq)
	}
}

// hugeCrossCheck reruns seed 1 at 5 s, the golden huge.json/5s-smoke
// configuration, under the auditor.
func (b *bench) hugeCrossCheck() {
	spec, err := hugeSpec(1, hugeDuration)
	var sc experiment.Scenario
	if err == nil {
		sc, err = spec.Scenario()
	}
	if err != nil {
		b.count(hugeKey(1)+" (audited)", err)
		return
	}
	sc.Audit = true
	b.auditedCheck(hugeKey(1), b.golden["huge.json"]["5s-smoke"], sc)
}

// hugeProbe times pass k's deployment build, posts shortened 10k-node
// specs through the serve handler, and makes tier-10k's audited golden
// check, which costs as much as a pass and so is left to the traced run.
func (b *bench) hugeProbe(k int) error {
	b.hugeCrossCheck()
	spec, err := hugeSpec(hugeSimSeed(b.seed, k), hugeDuration)
	if err != nil {
		return err
	}
	sc, err := spec.Scenario()
	if err != nil {
		return err
	}
	if err := b.layers.timeDeployment(sc); err != nil {
		return err
	}
	var reqs []request
	for i := 0; i < hugeProbeRuns; i++ {
		spec, err := hugeSpec(hugeSimSeed(b.seed, k+i), hugeProbeDuration)
		if err != nil {
			return err
		}
		spec.MeasureFrom = nil // huge.json's 2 s would lie past the shortened run
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		reqs = append(reqs, request{"tier-10k probe", body})
	}
	return b.serveProbe(reqs)
}

// --- the serve probe: the workloads' inputs on the audited serving path ---

// request is one POST /run body, named for error messages.
type request struct {
	key  string
	body []byte
}

// newServer is the in-process server the probe posts to: the default
// configuration with the invariant auditor forced on.
func newServer() *serve.Server { return serve.New(serve.Config{Audit: true}) }

// checkRun checks a /run response: status 200, an audit summary, and no
// invariant violations.
func checkRun(rec *httptest.ResponseRecorder) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp serve.RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	if resp.Audit == nil {
		return fmt.Errorf("response has no audit summary")
	}
	if resp.Audit.Violations != 0 {
		return fmt.Errorf("%d invariant violations", resp.Audit.Violations)
	}
	return nil
}

// serveProbe measures serve.overhead_ms: it posts each request (closed
// loop, one client, no sockets) to a fresh server and then replays it
// through the public experiment stages the handler calls. The replays
// alternate over two arenas as the default server's two workers do.
// Each call starts from a collected heap and its replay follows it at
// once, so neither pays the other's garbage and both see the host at the
// same speed. The probe's calls record no spans.
func (b *bench) serveProbe(reqs []request) error {
	saved := b.tr
	b.tr = nil
	defer func() { b.tr = saved }()
	h := newServer().Handler()
	cache := experiment.NewDeployCache(0)
	arenas := []*experiment.Arena{experiment.NewArenaWithCache(cache), experiment.NewArenaWithCache(cache)}
	for i, rq := range reqs {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(rq.body))
		runtime.GC()
		c0 := cpuNow()
		h.ServeHTTP(rec, req)
		handler := cpuNow() - c0
		if err := checkRun(rec); err != nil {
			return fmt.Errorf("%s: serve probe: %w", rq.key, err)
		}
		runtime.GC()
		stages, err := b.replay(arenas[i%2], rq.body)
		if err != nil {
			return fmt.Errorf("%s: replay: %w", rq.key, err)
		}
		b.layers.serveOverhead = append(b.layers.serveOverhead, handler-stages)
	}
	return nil
}

// replay runs one request body through the stages the handler calls
// (spec parse and compile, Build, Simulate, Collect) with the auditor on,
// as the server forces it, and returns their summed CPU time.
func (b *bench) replay(arena *experiment.Arena, body []byte) (time.Duration, error) {
	c0 := cpuNow()
	spec, err := experiment.ParseSpec(body)
	if err != nil {
		return 0, err
	}
	spec.Audit = true
	sc, err := spec.Scenario()
	if err != nil {
		return 0, err
	}
	s, err := b.build(arena, sc)
	if err != nil {
		return 0, err
	}
	if err := b.simulate(s, nil); err != nil {
		return 0, err
	}
	_, err = b.collect(s)
	return cpuNow() - c0, err
}
