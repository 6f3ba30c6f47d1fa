package experiment

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/essat/essat/internal/protocol"
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
	var scs []Scenario
	for _, p := range []Protocol{DTSSS, NTSSS, PSM} {
		for _, seed := range []int64{3, 4, 5} {
			scs = append(scs, arenaScenario(p, seed))
		}
	}
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

// TestWarmArenaAllocsByProtocol holds every protocol to the arena's
// steady-state promise: a third back-to-back run of the Fig. 6 scenario
// (80 nodes, 20 s, base rate 5, seed 1) on one arena with a deployment
// cache must allocate at most twice what DTS-SS's third run allocates.
// The bound is relative so that it means the same on every Go release;
// a baseline power manager that builds closures, maps or pooled items
// per beacon exceeds it by an order of magnitude.
func TestWarmArenaAllocsByProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 21 full 20 s scenarios")
	}
	warm := func(p Protocol) uint64 {
		sc := DefaultScenario(p, 1)
		sc.Duration = 20 * time.Second
		sc.Queries = QueryClasses(rand.New(rand.NewSource(7919)), 5, 1, 10*time.Second)
		a := NewArenaWithCache(NewDeployCache(0))
		var alloc uint64
		for i := 0; i < 3; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := RunContextWith(context.Background(), a, sc, Budget{}); err != nil {
				t.Fatalf("%s run %d: %v", p, i, err)
			}
			runtime.ReadMemStats(&m1)
			alloc = m1.TotalAlloc - m0.TotalAlloc
		}
		return alloc
	}
	ref := warm(DTSSS)
	t.Logf("%s: %d B per warm run", DTSSS, ref)
	for _, p := range []Protocol{STSSS, NTSSS, SPAN, PSM, SYNC, TMAC} {
		got := warm(p)
		t.Logf("%s: %d B per warm run (%.1fx %s)", p, got, float64(got)/float64(ref), DTSSS)
		if got > 2*ref {
			t.Errorf("%s: warm run allocated %d B, more than twice %s's %d B", p, got, DTSSS, ref)
		}
	}
}
