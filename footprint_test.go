package essat_test

import (
	"runtime"
	"testing"
	"time"

	"github.com/essat/essat"
)

// liveHeapPerNodeBound is the committed per-node footprint of the
// 1000-node tier: live heap bytes per deployed node after a 5 s run of
// testdata/large.json, measured at 3,173 B/node (x86-64, Go 1.24) once
// a query agent kept only its open rounds and the MAC numbered frames
// in 32 bits, plus 10% headroom. Keeping eight closed rounds per query
// measured 3,697, per-node copies of per-run state 4,429, and fixed
// per-node capacities 5,795.
const liveHeapPerNodeBound = 3490

// TestLiveHeapPerNode guards the per-node memory cost: it builds and
// simulates testdata/large.json for 5 s, collects garbage while the
// simulation is still reachable, and checks the live-heap growth per
// node against liveHeapPerNodeBound. Per-node regressions compound at
// the 10,000-node tier, where they set peak memory. It must not run
// alongside other tests, so it is not parallel.
func TestLiveHeapPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 1000-node tier")
	}
	spec, err := essat.LoadSpec("testdata/large.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = essat.Dur(5 * time.Second)
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := essat.BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Simulate()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	nodes := sc.Topology.NumNodes
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(nodes)
	t.Logf("live heap %d B/node over %d nodes (bound %d)", perNode, nodes, liveHeapPerNodeBound)
	if perNode > liveHeapPerNodeBound {
		t.Errorf("live heap %d B/node after a 5 s run of %d nodes, bound %d", perNode, nodes, liveHeapPerNodeBound)
	}
}

// arenaRetainedBound bounds the live heap an arena keeps between runs:
// an arena with no deployment cache after a 5 s run of
// testdata/large.json, garbage collected with the arena kept and the
// run's Result dropped. An arena keeps its engine and memory pools; it
// kept a second engine for the setup flood until floods ran on the
// run's engine. The bound is 3,181,392 B, measured once a query agent
// kept only its open rounds (x86-64, Go 1.24), plus 10%. Keeping eight
// closed rounds per query measured 3,700,176 B, and per-node copies of
// per-run state 4,437,256 B.
const arenaRetainedBound = 3418 << 10

// TestArenaRetainedHeap guards what an arena holds on to: chunk-carved
// pools and a flood that runs on the run's own engine and pools must
// not grow it by more than 10%. It must not run alongside other tests,
// so it is not parallel.
func TestArenaRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the 1000-node tier")
	}
	spec, err := essat.LoadSpec("testdata/large.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = essat.Dur(5 * time.Second)
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a := essat.NewArenaWithCache(nil)
	if _, err := essat.RunWith(a, sc); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("an arena retains %d B after a 5 s run of %d nodes (bound %d)", retained, sc.Topology.NumNodes, arenaRetainedBound)
	if retained > arenaRetainedBound {
		t.Errorf("an arena retains %d B after a 5 s run of %d nodes, bound %d", retained, sc.Topology.NumNodes, arenaRetainedBound)
	}
}
