package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/topology"
)

func TestPathOnChain(t *testing.T) {
	_, tree := chainTree(t, 5)
	got := tree.Path(4, 2)
	want := []NodeID{4, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("Path(4,2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(4,2) = %v, want %v", got, want)
		}
	}
}

func TestPathThroughLCA(t *testing.T) {
	_, tree := yTree(t)
	// 2 and 3 are siblings under 1: path goes 2 → 1 → 3.
	got := tree.Path(2, 3)
	want := []NodeID{2, 1, 3}
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("Path(2,3) = %v, want %v", got, want)
	}
	// Reverse direction mirrors.
	rev := tree.Path(3, 2)
	if len(rev) != 3 || rev[0] != 3 || rev[2] != 2 {
		t.Fatalf("Path(3,2) = %v", rev)
	}
}

func TestPathToAncestorAndSelfEdge(t *testing.T) {
	_, tree := chainTree(t, 4)
	got := tree.Path(3, 0)
	if len(got) != 4 || got[0] != 3 || got[3] != 0 {
		t.Fatalf("Path(3,0) = %v", got)
	}
	// Path to self: single node.
	self := tree.Path(2, 2)
	if len(self) != 1 || self[0] != 2 {
		t.Fatalf("Path(2,2) = %v", self)
	}
}

func TestPathDeadEndpoint(t *testing.T) {
	_, tree := yTree(t)
	tree.MarkDead(3)
	if got := tree.Path(2, 3); got != nil {
		t.Fatalf("Path to dead node = %v, want nil", got)
	}
}

// TestPathOutsideDeployment: an ID outside the deployment is no live
// member and has no path, in either direction.
func TestPathOutsideDeployment(t *testing.T) {
	_, tree := yTree(t)
	for _, id := range []NodeID{5000, -4} {
		if tree.Alive(id) {
			t.Errorf("Alive(%d) = true", id)
		}
		if got := tree.Path(id, 2); got != nil {
			t.Errorf("Path(%d, 2) = %v, want nil", id, got)
		}
		if got := tree.Path(2, id); got != nil {
			t.Errorf("Path(2, %d) = %v, want nil", id, got)
		}
	}
}

// TestPathProperty: on random trees, every returned path is a valid walk
// along tree edges connecting the endpoints, visiting no node twice.
func TestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := topology.New(rng, topology.Config{NumNodes: 30, AreaSide: 350, Range: 125})
		if err != nil {
			return false
		}
		tree, err := BuildBFS(topo, topo.CentralNode(), 0)
		if err != nil {
			return false
		}
		members := tree.AppendMembers(nil)
		if len(members) < 2 {
			return true
		}
		for trial := 0; trial < 10; trial++ {
			a := members[rng.Intn(len(members))]
			b := members[rng.Intn(len(members))]
			path := tree.Path(a, b)
			if path == nil || path[0] != a || path[len(path)-1] != b {
				return false
			}
			seen := map[NodeID]bool{}
			for i, id := range path {
				if seen[id] {
					return false
				}
				seen[id] = true
				if i == 0 {
					continue
				}
				prev := path[i-1]
				// Consecutive nodes must share a tree edge.
				if tree.Parent(id) != prev && tree.Parent(prev) != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPathUsesGeometry(t *testing.T) {
	// Ensure geom import is exercised for this file's fixtures.
	_ = geom.Point{}
}
