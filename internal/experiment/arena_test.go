package experiment

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/essat/essat/internal/protocol"
	"github.com/essat/essat/internal/sim"
)

func arenaScenario(p Protocol, seed int64) Scenario {
	sc := DefaultScenario(p, seed)
	sc.Topology.NumNodes = 40
	sc.Topology.AreaSide = 350
	sc.Duration = 10 * time.Second
	sc.MeasureFrom = 2 * time.Second
	sc.Queries = QueryClasses(rand.New(rand.NewSource(seed*7919)), 1.0, 1, 3*time.Second)
	sc.Audit = true
	return sc
}

// TestArenaResetDigestMatch is the arena's core correctness contract:
// N back-to-back runs on one reused arena — engine reset, memory pools
// rewound, deployments served from cache — produce exactly the audit
// digests of N fresh runs, for every registered protocol. The arena
// changes where memory comes from, never what a run computes.
func TestArenaResetDigestMatch(t *testing.T) {
	const repeats = 3
	a := NewArenaWithCache(NewDeployCache(0))
	for _, p := range protocol.All() {
		sc := arenaScenario(p, 7)
		fresh, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: fresh run: %v", p, err)
		}
		if fresh.Audit == nil || fresh.Audit.Digest == "" {
			t.Fatalf("%s: fresh run has no audit digest", p)
		}
		for i := 0; i < repeats; i++ {
			got, err := RunContextWith(context.Background(), a, sc, Budget{})
			if err != nil {
				t.Fatalf("%s: arena run %d: %v", p, i, err)
			}
			if got.Audit.Digest != fresh.Audit.Digest {
				t.Fatalf("%s: arena run %d digest %s, want %s",
					p, i, got.Audit.Digest, fresh.Audit.Digest)
			}
			if got.Audit.Total != 0 {
				t.Fatalf("%s: arena run %d: %d invariant violations", p, i, got.Audit.Total)
			}
		}
	}
	// All protocols share one seed, hence one deployment: everything
	// after the first build must come from the cache.
	hits, misses := a.cache.Stats()
	if misses != 1 {
		t.Errorf("deploy cache misses = %d, want 1 (one deployment shape)", misses)
	}
	if want := uint64(len(protocol.All())*repeats - 1); hits != want {
		t.Errorf("deploy cache hits = %d, want %d", hits, want)
	}
}

// TestArenaMixedShapeSteadyState runs a mini-grid whose runs differ in
// shape — three protocols, three seeds, so every node's children and
// every per-node table size vary from run to run — twice through one
// arena without a deployment cache. Pool slots are sized to each run's
// need and replaced as they grow, so every digest must still equal its
// fresh-engine digest, and the second pass, which meets only needs the
// first pass already met, must allocate no more bytes than the first.
func TestArenaMixedShapeSteadyState(t *testing.T) {
	scs := mixedShapeScenarios()
	fresh := make([]string, len(scs))
	for i, sc := range scs {
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s seed %d: fresh run: %v", sc.Protocol, sc.Seed, err)
		}
		fresh[i] = res.Audit.Digest
	}
	a := NewArenaWithCache(nil)
	var bytes [2]uint64
	for pass := range bytes {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, sc := range scs {
			res, err := RunContextWith(context.Background(), a, sc, Budget{})
			if err != nil {
				t.Fatalf("pass %d %s seed %d: %v", pass, sc.Protocol, sc.Seed, err)
			}
			if res.Audit.Digest != fresh[i] {
				t.Fatalf("pass %d %s seed %d: arena digest %s, want %s",
					pass, sc.Protocol, sc.Seed, res.Audit.Digest, fresh[i])
			}
		}
		runtime.ReadMemStats(&m1)
		bytes[pass] = m1.TotalAlloc - m0.TotalAlloc
	}
	if bytes[1] > bytes[0] {
		t.Errorf("second pass allocated %d bytes, more than the first pass's %d", bytes[1], bytes[0])
	}
}

// mixedShapeScenarios is a mini-grid whose runs differ in shape: three
// protocols and three seeds, so every node's children and every
// per-node table size vary from run to run.
func mixedShapeScenarios() []Scenario {
	var scs []Scenario
	for _, p := range []Protocol{DTSSS, NTSSS, PSM} {
		for _, seed := range []int64{3, 4, 5} {
			scs = append(scs, arenaScenario(p, seed))
		}
	}
	return scs
}

// TestArenaMixedShapeSettlesInOnePass: a fresh arena with a deployment
// cache runs the mixed-shape set once in grid order, then again in a
// shuffled order. Pools carve requests from chunks they never replace,
// so a run walks the chunks it walked in the first pass, which met
// every need of the set, and each run of the shuffled pass allocates only what a warm
// repeat of the same run allocates: its Result. Each count is the lower
// of two trials, so an allocation the runtime makes in the background
// during one run does not count.
func TestArenaMixedShapeSettlesInOnePass(t *testing.T) {
	scs := mixedShapeScenarios()
	order := rand.New(rand.NewSource(1)).Perm(len(scs))
	mallocs := func(a *Arena, sc Scenario) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := RunContextWith(context.Background(), a, sc, Budget{}); err != nil {
			t.Fatalf("%s seed %d: %v", sc.Protocol, sc.Seed, err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	shuffled := make([]uint64, len(scs))
	var a *Arena
	for trial := 0; trial < 2; trial++ {
		a = NewArenaWithCache(NewDeployCache(0))
		for _, sc := range scs {
			mallocs(a, sc)
		}
		for _, i := range order {
			if n := mallocs(a, scs[i]); trial == 0 || n < shuffled[i] {
				shuffled[i] = n
			}
		}
	}
	for i, sc := range scs {
		warm := min(mallocs(a, sc), mallocs(a, sc))
		t.Logf("%s seed %d: %d allocations in the shuffled pass, %d warm", sc.Protocol, sc.Seed, shuffled[i], warm)
		if shuffled[i] > warm {
			t.Errorf("%s seed %d: the shuffled pass made %d allocations, a warm repeat %d",
				sc.Protocol, sc.Seed, shuffled[i], warm)
		}
	}
}

// TestArenaCacheKeyedBySeed checks distinct deployments don't collide:
// two seeds through one arena still match their fresh-run digests and
// occupy separate cache entries.
func TestArenaCacheKeyedBySeed(t *testing.T) {
	a := NewArenaWithCache(NewDeployCache(0))
	for _, seed := range []int64{3, 4, 3} {
		sc := arenaScenario(DTSSS, seed)
		fresh, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: fresh run: %v", seed, err)
		}
		got, err := RunContextWith(context.Background(), a, sc, Budget{})
		if err != nil {
			t.Fatalf("seed %d: arena run: %v", seed, err)
		}
		if got.Audit.Digest != fresh.Audit.Digest {
			t.Fatalf("seed %d: arena digest %s, want %s", seed, got.Audit.Digest, fresh.Audit.Digest)
		}
	}
	if n := a.cache.Len(); n != 2 {
		t.Errorf("cache holds %d deployments, want 2", n)
	}
	hits, misses := a.cache.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", hits, misses)
	}
}

// warmAllocs runs sc four times back to back on one arena with a
// deployment cache and returns the fewest heap bytes and the fewest
// allocations of the three warm runs, each minimum taken on its own.
// MemStats counts the whole process, so an allocation the runtime or
// another goroutine makes while a run is measured lands in that run's
// figures; it does not land in every run, while whatever the run
// itself allocates does, so the minima count the run alone.
func warmAllocs(t *testing.T, sc Scenario) (bytes, mallocs uint64) {
	t.Helper()
	a := NewArenaWithCache(NewDeployCache(0))
	bytes, mallocs = ^uint64(0), ^uint64(0)
	for i := 0; i < 4; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := RunContextWith(context.Background(), a, sc, Budget{}); err != nil {
			t.Fatalf("%s run %d: %v", sc.Protocol, i, err)
		}
		runtime.ReadMemStats(&m1)
		if i > 0 {
			bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
			mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
		}
	}
	return bytes, mallocs
}

// fig6Scenario is the Fig. 6 run the warm-arena tests measure: 80
// nodes, base rate 5, seed 1, for d.
func fig6Scenario(p Protocol, d time.Duration) Scenario {
	sc := DefaultScenario(p, 1)
	sc.Duration = d
	sc.Queries = QueryClasses(rand.New(rand.NewSource(7919)), 5, 1, 10*time.Second)
	return sc
}

// flowsScenario is testdata/flows.json (peer and dissemination flows, a
// failure and its recovery) run for d.
func flowsScenario(t *testing.T, d time.Duration) Scenario {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("../../testdata", "flows.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = d
	return sc
}

// maxWarmBytes bounds the heap bytes of any warm 20 s run: a warm run
// allocates only the Result its caller keeps (about 1 KiB; flows.json's
// failure recovery adds about 0.5 KiB).
const maxWarmBytes = 8 << 10

// TestWarmArenaAllocsByProtocol holds every protocol, and the flows of
// testdata/flows.json, to the arena's steady-state promise on warm 20 s
// runs on one arena with a deployment cache: at most maxWarmBytes, and
// at most maxWarmMallocs allocations, which is the highest count
// measured over five runs plus 20. A warm run allocates
// its Result and nothing else, so anything that allocates once per
// member (the Fig. 6 tree has 74), per flow message or per interval
// exceeds it; TotalAlloc moves by a few hundred bytes between identical
// runs and cannot show a handful of small objects. The audited DTS-SS
// and NTS-SS runs, whose Safe Sleep is a radio's fourth listener after
// the auditor's tap, take the auditor from the arena and allocate only
// its Summary besides the Result.
func TestWarmArenaAllocsByProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 30 full 20 s scenarios")
	}
	maxWarmMallocs := map[string]uint64{
		string(DTSSS): 5 + 20,
		string(STSSS): 5 + 20,
		string(NTSSS): 5 + 20,
		string(SPAN):  5 + 20,
		string(PSM):   5 + 20,
		string(SYNC):  5 + 20,
		string(TMAC):  5 + 20,
		"flows.json":  22 + 20,

		"DTS-SS audited": 7 + 20,
		"NTS-SS audited": 7 + 20,
	}
	check := func(name string, sc Scenario) {
		bytes, mallocs := warmAllocs(t, sc)
		t.Logf("%s: %d B in %d allocations per warm run", name, bytes, mallocs)
		if bytes > maxWarmBytes {
			t.Errorf("%s: warm run allocated %d B, more than %d B", name, bytes, maxWarmBytes)
		}
		if max := maxWarmMallocs[name]; mallocs > max {
			t.Errorf("%s: warm run made %d allocations, more than %d", name, mallocs, max)
		}
	}
	for _, p := range []Protocol{DTSSS, STSSS, NTSSS, SPAN, PSM, SYNC, TMAC} {
		check(string(p), fig6Scenario(p, 20*time.Second))
	}
	check("flows.json", flowsScenario(t, 20*time.Second))
	for _, p := range []Protocol{DTSSS, NTSSS} {
		sc := fig6Scenario(p, 20*time.Second)
		sc.Audit = true
		check(string(p)+" audited", sc)
	}
}

// TestWarmArenaAllocsBySpec extends the warm-run bound to every
// checked-in spec but huge.json: a warm 20 s run on one arena with a
// deployment cache makes at most the allocations listed (the count
// measured, plus 20). A dynamics row's random stream and victim list
// come from the arena, as do the query tables a burst grows and the
// rows of a loss ramp. The same run audited makes at most 2 allocations
// more, its Summary: the auditor and its tables come from the arena
// too. The bound is on allocations, not bytes: TotalAlloc also counts
// what the runtime allocates in the background.
func TestWarmArenaAllocsBySpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 20 full 20 s scenarios")
	}
	for _, tc := range []struct {
		spec string
		max  uint64
	}{
		{"example.json", 12 + 20},
		{"dynamics_crash.json", 14 + 20},
		{"dynamics_linkloss.json", 13 + 20},
		{"dynamics_burst.json", 9 + 20},
		{"perturb.json", 31 + 20},
		{"flows.json", 22 + 20},
		// The gray zone's lost reports re-parent nodes, and every
		// re-parenting still appends to the tree on the heap.
		{"shadowing.json", 367 + 20},
		{"large.json", 13 + 20},
	} {
		spec, err := LoadSpec(filepath.Join("../../testdata", tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20 * time.Second
		sc.Audit = false
		_, plain := warmAllocs(t, sc)
		sc.Audit = true
		_, audited := warmAllocs(t, sc)
		t.Logf("%s: %d allocations per warm run, %d audited", tc.spec, plain, audited)
		if plain > tc.max {
			t.Errorf("%s: warm run made %d allocations, more than %d", tc.spec, plain, tc.max)
		}
		if audited > plain+2 {
			t.Errorf("%s: auditing added %d allocations to a warm run, more than 2", tc.spec, audited-plain)
		}
	}
}

// TestWarmArenaMallocsIndependentOfDuration: a warm run's allocations do
// not grow with its length. The Fig. 6 DTS-SS run and flows.json each
// make the same number of allocations at 20 s and at 200 s, though the
// 200 s runs fire ten times the events, close ten times the intervals
// and relay ten times the flow messages.
func TestWarmArenaMallocsIndependentOfDuration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 200 s scenarios")
	}
	for _, tc := range []struct {
		name string
		sc   func(time.Duration) Scenario
	}{
		{"fig6 DTS-SS", func(d time.Duration) Scenario { return fig6Scenario(DTSSS, d) }},
		{"flows.json", func(d time.Duration) Scenario { return flowsScenario(t, d) }},
	} {
		_, short := warmAllocs(t, tc.sc(20*time.Second))
		_, long := warmAllocs(t, tc.sc(200*time.Second))
		t.Logf("%s: %d allocations at 20 s, %d at 200 s", tc.name, short, long)
		if short != long {
			t.Errorf("%s: a warm run makes %d allocations at 20 s but %d at 200 s", tc.name, short, long)
		}
	}
}

// TestArenaResultSurvivesNextRun: a Result is heap-owned. One held from
// a run keeps its JSON encoding, byte for byte, after a different
// scenario (another seed and protocol, so other values) runs on the same
// arena and reuses the arena slots the first run took. The first run
// fills every Result field that could alias run state: flows, a
// failure, sleep intervals, a trace, three metric sinks and the auditor.
func TestArenaResultSurvivesNextRun(t *testing.T) {
	first := flowsScenario(t, 20*time.Second)
	first.RecordSleepIntervals = true
	first.TraceCapacity = 64
	first.Audit = true
	first.Sinks = []SinkChoice{{Name: "timeseries"}, {Name: "energy"}, {Name: "jsonl"}}
	second := first
	second.Seed = 2
	second.Protocol = STSSS

	a := NewArenaWithCache(NewDeployCache(0))
	res, err := RunContextWith(context.Background(), a, first, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContextWith(context.Background(), a, second, Budget{}); err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a Result changed after later runs on its arena:\nbefore %s\nafter  %s", before, after)
	}
}

// TestArenaCensusByTag logs where a 5 s run of the 1,000-node
// testdata/large.json keeps its arena memory, in bytes per node by pool
// tag, and checks the pools every station or agent of a run shares
// (MAC queue items and headers, in-flight query reports): each must
// hold fewer objects than the network has nodes. A shared pool holds
// only what the network has live at once (647 items, 112 headers, 647
// reports); a freelist per node keeps at least one for every node that
// ever sent, which measured 1,138 items, 1,000 headers and 1,138
// reports on this run. A query agent returns a round to its pool when
// the round closes, so the run's query intervals number no more than
// its nodes (1,000; keeping eight closed rounds per query took 4,000).
// The run goes twice on one arena, and the second census must equal
// the first, so a pool that outlives the arena's reset fails.
func TestArenaCensusByTag(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("../../testdata", "large.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 5 * time.Second
	a := NewArenaWithCache(nil)
	var census [2][]sim.TagUsage
	for pass := range census {
		s, err := BuildWith(a, sc)
		if err != nil {
			t.Fatal(err)
		}
		s.Simulate()
		census[pass] = s.Eng.Arena().Census()
	}
	if !slices.Equal(census[0], census[1]) {
		t.Errorf("a second run on the arena took other memory:\nfirst  %+v\nsecond %+v", census[0], census[1])
	}
	byBytes := slices.Clone(census[1])
	slices.SortStableFunc(byBytes, func(a, b sim.TagUsage) int { return cmp.Compare(b.Bytes, a.Bytes) })
	nodes := int64(sc.Topology.NumNodes)
	var total int64
	for _, u := range byBytes {
		total += u.Bytes
	}
	t.Logf("arena: %d B per node over %d nodes", total/nodes, nodes)
	for _, u := range byBytes {
		if u.Bytes*100 >= total {
			t.Logf("  %-22s %5d B/node  %7d objects", u.Tag, u.Bytes/nodes, u.Objects)
		}
	}
	for _, tag := range []string{"mac.item", "mac.hdr", "query.txreport"} {
		i := slices.IndexFunc(census[1], func(u sim.TagUsage) bool { return u.Tag == tag })
		if i < 0 {
			t.Errorf("the census has no %s pool", tag)
			continue
		}
		objects := int64(census[1][i].Objects)
		t.Logf("shared pool %s: %d objects", tag, objects)
		if objects >= nodes {
			t.Errorf("shared pool %s holds %d objects, not fewer than the %d nodes", tag, objects, nodes)
		}
	}
	i := slices.IndexFunc(census[1], func(u sim.TagUsage) bool { return u.Tag == "query.interval" })
	if i < 0 {
		t.Fatal("the census has no query.interval slab")
	}
	if objects := int64(census[1][i].Objects); objects > nodes {
		t.Errorf("the run took %d query intervals, more than its %d nodes", objects, nodes)
	}
}

// TestOneShotRunOnPrivateArena: a one-shot build, BuildWith with a nil
// arena, runs on a private arena like any other build, setup flood
// included. An audited 5 s run of the 1,000-node testdata/large.json
// therefore allocates its event structs and its pools' chunks and
// blocks, not one object per node, radio, MAC and query interval: at
// most maxOneShotMallocs, the 525 measured plus 10%: its events come
// in blocks too (on the heap, one object each, it made 57,203; with
// one allocation per event, 5,554). Its digest equals the digest of
// warm runs on a reused arena whose deployment comes from the cache.
// The count is the lower of two trials.
func TestOneShotRunOnPrivateArena(t *testing.T) {
	const maxOneShotMallocs = 525 * 11 / 10
	spec, err := LoadSpec(filepath.Join("../../testdata", "large.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 5 * time.Second
	sc.Audit = true
	var digest string
	mallocs := ^uint64(0)
	for trial := 0; trial < 2; trial++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := BuildWith(nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		s.Simulate()
		res := s.Collect()
		runtime.ReadMemStats(&m1)
		mallocs = min(mallocs, m1.Mallocs-m0.Mallocs)
		digest = res.Audit.Digest
	}
	t.Logf("one-shot large.json: %d allocations", mallocs)
	if mallocs > maxOneShotMallocs {
		t.Errorf("a one-shot run made %d allocations, more than %d", mallocs, maxOneShotMallocs)
	}
	a := NewArenaWithCache(NewDeployCache(0))
	for i := 0; i < 2; i++ {
		res, err := RunContextWith(context.Background(), a, sc, Budget{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Audit.Digest != digest {
			t.Fatalf("warm-arena run %d digest %s, one-shot %s", i, res.Audit.Digest, digest)
		}
	}
}
