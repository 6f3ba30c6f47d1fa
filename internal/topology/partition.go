package topology

import (
	"fmt"
	"math"
)

// Partition is a spatial decomposition of a deployment into K shards for
// the parallel event loop: contiguous vertical bands of grid columns,
// built with the same range-sized bucketing as the neighbor spatial
// hash. Crossing a band edge therefore always spans at least one column
// of width >= the candidate-neighbor radius, so a node's neighbors are
// confined to its own shard and the two adjacent ones — the property the
// conservative cross-shard latency relies on.
//
// Shards may be empty (K larger than the number of occupied columns);
// the scheduler simply has nothing to run there.
type Partition struct {
	// K is the shard count.
	K int
	// Assign maps NodeID -> shard index, dense over the deployment.
	Assign []int32
	// Members lists each shard's nodes in ascending NodeID order.
	Members [][]NodeID
}

// PartitionGrid cuts the deployment into k contiguous vertical bands of
// spatial-hash columns, balancing node counts greedily. k must be in
// [1, 64]; the 64 cap matches the per-transmission routing bitmask in
// the channel mesh.
func PartitionGrid(t *Topology, k int) (*Partition, error) {
	if k < 1 || k > 64 {
		return nil, fmt.Errorf("topology: shard count must be in [1,64], got %d", k)
	}
	n := t.NumNodes()
	p := &Partition{
		K:       k,
		Assign:  make([]int32, n),
		Members: make([][]NodeID, k),
	}

	// Column width: the candidate-neighbor radius, exactly the spatial
	// hash's cell side, so adjacent-band locality holds by construction.
	cell := t.NeighborRange()
	minX, maxX := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		x := t.Position(NodeID(i)).X
		minX, maxX = math.Min(minX, x), math.Max(maxX, x)
	}
	ncols := int((maxX-minX)/cell) + 1
	colOf := func(id NodeID) int {
		c := int((t.Position(id).X - minX) / cell)
		if c >= ncols {
			c = ncols - 1
		}
		return c
	}
	counts := make([]int, ncols)
	for i := 0; i < n; i++ {
		counts[colOf(NodeID(i))]++
	}

	// Greedy contiguous split: walk columns left to right, closing shard
	// s once the running count reaches its cumulative target (s+1)·n/k.
	// Columns are atomic, so a dense column can overshoot; later shards
	// absorb the imbalance, and trailing shards may come out empty.
	colShard := make([]int32, ncols)
	sizes := make([]int, k)
	shard, cum := 0, 0
	for c := 0; c < ncols; c++ {
		colShard[c] = int32(shard)
		sizes[shard] += counts[c]
		cum += counts[c]
		for shard < k-1 && cum >= (shard+1)*n/k && cum > 0 {
			shard++
		}
	}

	// Ascending NodeID order by construction: nodes are visited in order.
	for s := range p.Members {
		p.Members[s] = make([]NodeID, 0, sizes[s])
	}
	for i := 0; i < n; i++ {
		s := colShard[colOf(NodeID(i))]
		p.Assign[i] = s
		p.Members[s] = append(p.Members[s], NodeID(i))
	}
	return p, nil
}

// Shard returns the shard index of node id.
func (p *Partition) Shard(id NodeID) int { return int(p.Assign[id]) }
