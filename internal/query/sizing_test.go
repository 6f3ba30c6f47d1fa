package query

import (
	"math"
	"slices"
	"testing"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// starTree roots a tree at node 0 with k leaves around it.
func starTree(t *testing.T, k int) *routing.Tree {
	t.Helper()
	pts := []geom.Point{{X: 0, Y: 0}}
	for i := 0; i < k; i++ {
		a := 2 * math.Pi * float64(i) / float64(k)
		pts = append(pts, geom.Point{X: 100 * math.Cos(a), Y: 100 * math.Sin(a)})
	}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tree.Children(0)); got != k {
		t.Fatalf("star root has %d children, want %d", got, k)
	}
	return tree
}

// TestAgentTablesSizedByChildren runs a node's agent for several periods
// and checks every per-child table holds exactly one row per child: a
// leaf's intervals carry no row backing and it keeps no miss rows, and
// a node with k children gets capacity k. The interval table starts at
// two rounds and holds only open ones: a round goes back to the pool
// when it closes, so after 12 periods the agent holds at most two
// intervals, the open round and one spare.
func TestAgentTablesSizedByChildren(t *testing.T) {
	for _, arena := range []bool{false, true} {
		for _, k := range []int{1, 3, 6} {
			tree := starTree(t, k)
			for _, id := range []NodeID{0, 1} { // the root, then a leaf
				eng := sim.New(1)
				if arena {
					eng.SetArena(sim.NewArena())
				}
				want := len(tree.Children(id))
				host := &testHost{Send: func(NodeID, any, int, mac.SendCallback) {}}
				var sink Sink
				if id == 0 {
					sink = &testSink{}
				}
				a := NewAgent(eng, id, tree, newStubShaper(), host, sink, Config{FailureThreshold: 3}, 1)
				if err := a.Register(&spec); err != nil {
					t.Fatal(err)
				}
				eng.Run(spec.IntervalStart(12))
				rt := a.runtimeFor(spec.ID)
				held := len(rt.intervals) + len(a.ivFree)
				if held == 0 {
					t.Fatalf("arena=%t k=%d node %d: no intervals after 12 periods", arena, k, id)
				}
				if held > 2 {
					t.Errorf("arena=%t k=%d node %d: agent holds %d intervals, want at most 2", arena, k, id, held)
				}
				for _, iv := range rt.intervals {
					if iv.timeout == nil {
						t.Errorf("arena=%t k=%d node %d: interval %d in the table is closed", arena, k, id, iv.k)
					}
				}
				for _, iv := range append(slices.Clone(rt.intervals), a.ivFree...) {
					if cap(iv.rows) != want {
						t.Errorf("arena=%t k=%d node %d: interval %d row cap %d, want %d",
							arena, k, id, iv.k, cap(iv.rows), want)
					}
				}
				if cap(rt.consecMiss) != want {
					t.Errorf("arena=%t k=%d node %d: miss table cap %d, want %d", arena, k, id, cap(rt.consecMiss), want)
				}
				if cap(rt.intervals) != 2 {
					t.Errorf("arena=%t k=%d node %d: interval table cap %d, want 2", arena, k, id, cap(rt.intervals))
				}
				if cap(a.queries) != 1 {
					t.Errorf("arena=%t k=%d node %d: query table cap %d, want 1", arena, k, id, cap(a.queries))
				}
			}
		}
	}
}
