package topology

import (
	"math"
	"math/rand"
	"testing"
)

func buildTopo(t *testing.T, seed int64, cfg Config) *Topology {
	t.Helper()
	topo, err := New(rand.New(rand.NewSource(seed)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// boundaryNodes returns, in ascending ID order, every node with at least
// one candidate neighbor assigned to a different shard: the nodes whose
// transmissions cross the mesh.
func boundaryNodes(p *Partition, t *Topology) []NodeID {
	var out []NodeID
	for i := range p.Assign {
		id := NodeID(i)
		for _, nb := range t.Neighbors(id) {
			if p.Assign[nb] != p.Assign[id] {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// crossEdges counts directed neighbor pairs that span shards.
func crossEdges(p *Partition, t *Topology) int {
	total := 0
	for i := range p.Assign {
		for _, nb := range t.Neighbors(NodeID(i)) {
			if p.Assign[nb] != p.Assign[i] {
				total++
			}
		}
	}
	return total
}

// TestPartitionCovers: every node lands in exactly one shard, Members
// agrees with Assign, and member lists are ID-sorted.
func TestPartitionCovers(t *testing.T) {
	topo := buildTopo(t, 7, DefaultConfig())
	for _, k := range []int{1, 2, 4, 7} {
		p, err := PartitionGrid(topo, k)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for s, members := range p.Members {
			prev := NodeID(-1)
			for _, id := range members {
				if p.Assign[id] != int32(s) {
					t.Fatalf("k=%d: node %d in Members[%d] but assigned %d", k, id, s, p.Assign[id])
				}
				if id <= prev {
					t.Fatalf("k=%d: Members[%d] not strictly ascending", k, s)
				}
				prev = id
			}
			total += len(members)
		}
		if total != topo.NumNodes() {
			t.Fatalf("k=%d: %d nodes partitioned, want %d", k, total, topo.NumNodes())
		}
	}
}

// TestPartitionBandLocality pins the property the conservative lookahead
// relies on: bands are at least one neighbor-range-wide column, so a
// node whose column is interior to its shard (neither the shard's first
// nor last column) can have no cross-shard neighbors.
func TestPartitionBandLocality(t *testing.T) {
	topo := buildTopo(t, 11, DefaultConfig())
	p, err := PartitionGrid(topo, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Reconstruct the partitioner's column bucketing.
	cell := topo.NeighborRange()
	minX := math.Inf(1)
	for i := 0; i < topo.NumNodes(); i++ {
		minX = math.Min(minX, topo.Position(NodeID(i)).X)
	}
	colOf := func(id NodeID) int { return int((topo.Position(id).X - minX) / cell) }
	colLo := make(map[int32]int)
	colHi := make(map[int32]int)
	for i := range p.Assign {
		s, c := p.Assign[i], colOf(NodeID(i))
		if lo, ok := colLo[s]; !ok || c < lo {
			colLo[s] = c
		}
		if hi, ok := colHi[s]; !ok || c > hi {
			colHi[s] = c
		}
	}

	boundary := make(map[NodeID]bool)
	for _, id := range boundaryNodes(p, topo) {
		boundary[id] = true
	}
	if len(boundary) == 0 {
		t.Fatal("no boundary nodes in a 4-shard default deployment")
	}
	for i := range p.Assign {
		id := NodeID(i)
		s, c := p.Assign[i], colOf(id)
		if c > colLo[s] && c < colHi[s] && boundary[id] {
			t.Errorf("node %d is interior to shard %d (col %d in [%d,%d]) yet has cross-shard neighbors",
				id, s, c, colLo[s], colHi[s])
		}
	}

	// Every boundary node is, by the band construction, within one cell
	// (the lookahead's propagation radius) of a shard edge.
	for id := range boundary {
		s, c := p.Assign[id], colOf(id)
		if c != colLo[s] && c != colHi[s] {
			t.Errorf("boundary node %d sits in column %d, not at shard %d's edge [%d,%d]",
				id, c, s, colLo[s], colHi[s])
		}
	}
}

// TestPartitionEmptyShards: more shards than occupied columns leaves
// trailing shards empty without losing any node. A 100 m area at 125 m
// range is a single column, so every node lands in shard 0.
func TestPartitionEmptyShards(t *testing.T) {
	topo := buildTopo(t, 3, Config{NumNodes: 12, AreaSide: 100, Range: 125})
	p, err := PartitionGrid(topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Members[0]); got != topo.NumNodes() {
		t.Fatalf("single-column deployment: shard 0 has %d of %d nodes", got, topo.NumNodes())
	}
	for s := 1; s < 8; s++ {
		if len(p.Members[s]) != 0 {
			t.Errorf("shard %d should be empty, has %d nodes", s, len(p.Members[s]))
		}
	}
	if n := len(boundaryNodes(p, topo)); n != 0 {
		t.Errorf("single-shard occupancy has %d boundary nodes, want 0", n)
	}
	if n := crossEdges(p, topo); n != 0 {
		t.Errorf("single-shard occupancy has %d cross edges, want 0", n)
	}
}

// TestPartitionInvalidK: the [1,64] bound is enforced (64 is the mesh's
// routing-bitmask width).
func TestPartitionInvalidK(t *testing.T) {
	topo := buildTopo(t, 5, Config{NumNodes: 10, AreaSide: 300, Range: 125})
	for _, k := range []int{0, -1, 65} {
		if _, err := PartitionGrid(topo, k); err == nil {
			t.Errorf("k=%d: expected an error", k)
		}
	}
}

// TestPartitionDeterminism: the same topology partitions identically
// every time — the parallel engine's determinism starts here.
func TestPartitionDeterminism(t *testing.T) {
	topo := buildTopo(t, 9, DefaultConfig())
	a, err := PartitionGrid(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionGrid(topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("node %d assigned %d then %d", i, a.Assign[i], b.Assign[i])
		}
	}
}
