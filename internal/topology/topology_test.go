package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/essat/essat/internal/geom"
)

func mustFromPositions(t *testing.T, pts []geom.Point, r float64) *Topology {
	t.Helper()
	topo, err := FromPositions(pts, r)
	if err != nil {
		t.Fatalf("FromPositions: %v", err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(rng, Config{NumNodes: 0, AreaSide: 10, Range: 5}); err == nil {
		t.Error("want error for zero nodes")
	}
	if _, err := New(rng, Config{NumNodes: 5, AreaSide: -1, Range: 5}); err == nil {
		t.Error("want error for negative area")
	}
	if _, err := New(rng, Config{NumNodes: 5, AreaSide: 10, Range: 0}); err == nil {
		t.Error("want error for zero range")
	}
}

func TestChainTopology(t *testing.T) {
	topo := mustFromPositions(t, geom.LinePlacement(5, 100), 125)
	// Each interior node reaches exactly its two neighbors at 100m spacing
	// with 125m range.
	if got := len(topo.Neighbors(0)); got != 1 {
		t.Fatalf("node 0 has %d neighbors, want 1", got)
	}
	if got := len(topo.Neighbors(2)); got != 2 {
		t.Fatalf("node 2 has %d neighbors, want 2", got)
	}
	if !topo.Connected(1, 2) {
		t.Error("adjacent chain nodes not connected")
	}
	if topo.Connected(0, 2) {
		t.Error("nodes 200m apart connected with 125m range")
	}
	if topo.Connected(3, 3) {
		t.Error("node connected to itself")
	}
}

func TestNeighborSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := New(rng, Config{NumNodes: 30, AreaSide: 300, Range: 100})
		if err != nil {
			return false
		}
		for i := 0; i < topo.NumNodes(); i++ {
			for _, nb := range topo.Neighbors(NodeID(i)) {
				found := false
				for _, back := range topo.Neighbors(nb) {
					if back == NodeID(i) {
						found = true
						break
					}
				}
				if !found {
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

func TestCentralNode(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 5, Y: 1}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	topo := mustFromPositions(t, pts, 50)
	// Centroid is (5, 4.2); node 2 at (5,1) is closest.
	if got := topo.CentralNode(); got != 2 {
		t.Fatalf("CentralNode = %d, want 2", got)
	}
}

// countReachable counts the nodes connected to root, root included.
func countReachable(topo *Topology, root NodeID) int {
	seen := make([]bool, topo.NumNodes())
	seen[root] = true
	queue := []NodeID{root}
	for i := 0; i < len(queue); i++ {
		for _, nb := range topo.Neighbors(queue[i]) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(queue)
}

func TestPaperScaleDeploymentIsMostlyConnected(t *testing.T) {
	// With 80 nodes in 500x500 and 125m range the expected node degree is
	// ~15, so the network should be connected in nearly every seed. Check a
	// handful of seeds and require the vast majority of nodes reachable.
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo, err := New(rng, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if reachable := countReachable(topo, topo.CentralNode()); reachable < 70 {
			t.Errorf("seed %d: only %d/80 nodes reachable", seed, reachable)
		}
	}
}

// naiveNeighbors is the reference O(N²) all-pairs adjacency build the
// spatial hash replaced; the hash must reproduce it exactly.
func naiveNeighbors(pts []geom.Point, rangeM float64) [][]NodeID {
	neighbors := make([][]NodeID, len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].InRange(pts[j], rangeM) {
				neighbors[i] = append(neighbors[i], NodeID(j))
				neighbors[j] = append(neighbors[j], NodeID(i))
			}
		}
	}
	return neighbors
}

// TestSpatialHashMatchesAllPairs checks, over random deployments of
// varied density (including degenerate ones: range larger than the area,
// range much smaller than the area, coincident points), that the
// grid-bucket build produces neighbor lists identical — order included —
// to the all-pairs scan.
func TestSpatialHashMatchesAllPairs(t *testing.T) {
	cases := []struct {
		n    int
		side float64
		rng  float64
	}{
		{1, 100, 50},
		{2, 100, 200},    // range covers everything
		{30, 300, 100},   // paper-like density
		{200, 500, 125},  // dense
		{100, 10000, 30}, // sparse: grid would dwarf N, cells widen
		{50, 100, 1e6},   // absurd range: single cell
	}
	for _, tc := range cases {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			pts := geom.UniformPlacement(rng, tc.n, tc.side)
			if tc.n > 3 {
				pts[1] = pts[0] // coincident pair
			}
			flat, offsets := buildNeighbors(pts, tc.rng)
			want := naiveNeighbors(pts, tc.rng)
			for i := range pts {
				g, w := flat[offsets[i]:offsets[i+1]], want[i]
				if len(g) != len(w) {
					t.Fatalf("n=%d side=%g range=%g seed=%d: node %d has %d neighbors, want %d",
						tc.n, tc.side, tc.rng, seed, i, len(g), len(w))
				}
				for k := range g {
					if g[k] != w[k] {
						t.Fatalf("n=%d side=%g range=%g seed=%d: node %d neighbors %v, want %v",
							tc.n, tc.side, tc.rng, seed, i, g, w)
					}
				}
			}
		}
	}
}

// BenchmarkNeighborBuild measures topology construction at the large
// scenario tier's scale. With the spatial hash this grows linearly in N
// at fixed density (the naive all-pairs build was quadratic).
func BenchmarkNeighborBuild(b *testing.B) {
	for _, n := range []int{80, 1000, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Fixed density: scale the area with N, keep 125 m range.
			side := 500 * math.Sqrt(float64(n)/80)
			rng := rand.New(rand.NewSource(1))
			pts := geom.UniformPlacement(rng, n, side)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FromPositions(pts, 125); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
