// Package topology models the static deployment of a sensor network: node
// positions, the disc connectivity graph induced by radio range, and root
// selection. It corresponds to the experimental setup of the ESSAT paper
// (§5): nodes placed uniformly at random in a square, unit-disc links, and
// the root chosen as the node closest to the center of the area.
package topology

import (
	"fmt"
	"math"
	"slices"

	"github.com/essat/essat/internal/geom"
)

// NodeID identifies a node in a deployment. IDs are dense, starting at 0.
type NodeID int

// Topology is an immutable deployment: positions plus the connectivity
// graph implied by the communication range. When a gray-zone propagation
// model can deliver past the nominal range, the neighbor graph is built
// from the wider candidate radius (NeighborRange) instead; the channel's
// per-delivery verdict then decides which candidate links actually work.
type Topology struct {
	positions []geom.Point
	rangeM    float64 // nominal communication range
	neighborR float64 // candidate radius (>= rangeM)
	// Neighbor lists in CSR (compressed sparse row) form: node i's
	// neighbors are flat[offsets[i]:offsets[i+1]], sorted ascending.
	// One flat slab instead of N headers keeps the adjacency compact and
	// cache-friendly, and makes the whole graph two allocations.
	flat    []NodeID
	offsets []int32
}

// Config describes a deployment: its scale plus the placement generator
// that shapes it.
type Config struct {
	// NumNodes is the number of nodes to place.
	NumNodes int
	// AreaSide is the side of the square deployment area in meters.
	AreaSide float64
	// Range is the nominal communication range in meters.
	Range float64
	// NeighborRange widens the candidate-neighbor radius beyond Range
	// for propagation models whose gray zone reaches past the nominal
	// range (the experiment layer sets it from the model's MaxRange).
	// Zero or anything at most Range keeps the unit-disc radius.
	NeighborRange float64
	// Generator selects the placement shape by name ("uniform",
	// "grid", "clusters", "corridor"); empty selects uniform-random, the
	// paper's deployment. See New.
	Generator string
	// Params passes generator-specific knobs (e.g. grid "jitter",
	// clusters "clusters"/"spread", corridor "width"); see each
	// generator's doc. A key the generator does not read is an error.
	Params map[string]float64
}

// DefaultConfig returns the deployment used throughout the paper's
// evaluation: 80 nodes in a 500x500 m² area with 125 m range.
func DefaultConfig() Config {
	return Config{NumNodes: 80, AreaSide: 500, Range: 125}
}

// FromPositions builds a topology from explicit positions, computing the
// neighbor lists for the given communication range.
//
// The build uses a spatial hash: nodes are bucketed into a grid of
// range-sized cells and each node is compared only against nodes in its
// 3×3 cell neighborhood, so construction is O(N·degree) — linear in N
// for uniform densities — instead of the O(N²) all-pairs scan. Neighbor
// lists come out in ascending NodeID order, identical to the all-pairs
// build, so run results do not depend on the construction algorithm.
func FromPositions(pts []geom.Point, rangeM float64) (*Topology, error) {
	return fromPositions(slices.Clone(pts), rangeM, 0)
}

// fromPositions builds the topology with an explicit candidate radius;
// neighborR <= rangeM falls back to the unit-disc radius. The topology
// keeps pts.
func fromPositions(pts []geom.Point, rangeM, neighborR float64) (*Topology, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("topology: no positions")
	}
	if rangeM <= 0 {
		return nil, fmt.Errorf("topology: range must be positive, got %g", rangeM)
	}
	if neighborR < rangeM {
		neighborR = rangeM
	}
	flat, offsets := buildNeighbors(pts, neighborR)
	t := &Topology{
		positions: pts,
		rangeM:    rangeM,
		neighborR: neighborR,
		flat:      flat,
		offsets:   offsets,
	}
	return t, nil
}

// buildNeighbors computes the unit-disc adjacency in CSR form with a
// grid-bucket spatial hash. Each node's segment is sorted ascending by
// NodeID, identical to the all-pairs build. Links are symmetric, so
// each in-range pair is found once, from its lower ID: a first sweep
// counts every node's degree, which sizes the CSR array exactly, and a
// second sweep fills it.
func buildNeighbors(pts []geom.Point, rangeM float64) ([]NodeID, []int32) {
	minX, minY := pts[0].X, pts[0].Y
	maxX, maxY := minX, minY
	for _, p := range pts[1:] {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	// Cell side of (at least) one communication range keeps the candidate
	// scan to the 3×3 neighborhood; widen the cells when the deployment is
	// so sparse relative to the range that the grid would dwarf the node
	// count (cells only grow, so the 3×3 ring always covers the range).
	cell := rangeM
	for int((maxX-minX)/cell)*int((maxY-minY)/cell) > 4*len(pts)+64 {
		cell *= 2
	}
	nx := int((maxX-minX)/cell) + 1
	ny := int((maxY-minY)/cell) + 1
	cellOf := func(p geom.Point) (int, int) {
		return int((p.X - minX) / cell), int((p.Y - minY) / cell)
	}

	// Bucket the nodes by cell, counting-sort style: cell c holds
	// byCell[cells[c]:cells[c+1]], in ascending ID order.
	cells := make([]int32, nx*ny+1)
	for _, p := range pts {
		cx, cy := cellOf(p)
		cells[cy*nx+cx]++
	}
	for c := 1; c < len(cells); c++ {
		cells[c] += cells[c-1]
	}
	byCell := make([]NodeID, len(pts))
	for i := len(pts) - 1; i >= 0; i-- {
		cx, cy := cellOf(pts[i])
		c := cy*nx + cx
		cells[c]--
		byCell[cells[c]] = NodeID(i)
	}

	// pairs calls visit(i, j) for every in-range pair i < j.
	pairs := func(visit func(i, j NodeID)) {
		for i, p := range pts {
			cx, cy := cellOf(p)
			for y := max(cy-1, 0); y <= min(cy+1, ny-1); y++ {
				for x := max(cx-1, 0); x <= min(cx+1, nx-1); x++ {
					c := y*nx + x
					for _, j := range byCell[cells[c]:cells[c+1]] {
						if j > NodeID(i) && p.InRange(pts[j], rangeM) {
							visit(NodeID(i), j)
						}
					}
				}
			}
		}
	}
	offsets := make([]int32, len(pts)+1)
	pairs(func(i, j NodeID) { offsets[i+1]++; offsets[j+1]++ })
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	flat := make([]NodeID, offsets[len(pts)])
	next := slices.Clone(offsets[:len(pts)])
	pairs(func(i, j NodeID) {
		flat[next[i]], flat[next[j]] = j, i
		next[i]++
		next[j]++
	})
	// A segment lists its lower neighbors in ascending order, then its
	// higher ones in cell order; restore the all-pairs build's order.
	for i := range pts {
		slices.Sort(flat[offsets[i]:offsets[i+1]])
	}
	return flat, offsets
}

// NumNodes returns the number of nodes in the deployment.
func (t *Topology) NumNodes() int { return len(t.positions) }

// Range returns the nominal communication range in meters.
func (t *Topology) Range() float64 { return t.rangeM }

// NeighborRange returns the candidate-neighbor radius in meters; it
// equals Range unless a gray-zone propagation model widened it.
func (t *Topology) NeighborRange() float64 { return t.neighborR }

// Position returns the position of node id.
func (t *Topology) Position(id NodeID) geom.Point { return t.positions[id] }

// Neighbors returns the nodes within communication range of id. The
// returned slice is a view into the shared CSR slab and must not be
// modified.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	return t.flat[t.offsets[id]:t.offsets[id+1]]
}

// Connected reports whether a and b can hear each other at all: within
// the candidate-neighbor radius (the nominal range under the unit-disc
// default, the model's MaxRange under gray-zone propagation).
func (t *Topology) Connected(a, b NodeID) bool {
	return a != b && t.positions[a].InRange(t.positions[b], t.neighborR)
}

// CentralNode returns the node closest to the center of the bounding area,
// the paper's root-selection policy.
func (t *Topology) CentralNode() NodeID {
	return NodeID(geom.Closest(t.positions, geom.Centroid(t.positions)))
}
