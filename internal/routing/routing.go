// Package routing builds and maintains the aggregation tree the query
// service routes over.
//
// The paper's setup protocol: the root floods a setup request; every node
// picks, among the neighbors it heard the request from, the one with the
// lowest level as its parent. BuildBFS constructs the equivalent tree
// directly from the connectivity graph ("the routing tree is setup before
// the start of the experiments", §5), with deterministic lowest-ID
// tie-breaking among equal-level candidates.
//
// The tree also tracks each node's rank — the maximum hop count to any of
// its descendants, zero for leaves (§4.2.1) — which the STS traffic shaper
// schedules by, and supports the §4.3 maintenance operations: removing a
// failed node and re-parenting its children.
package routing

import (
	"fmt"
	"sort"

	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// NodeID aliases the shared node identifier type.
type NodeID = topology.NodeID

// None marks the absence of a parent.
const None NodeID = -1

// Tree is a rooted aggregation tree over a subset of deployment nodes.
type Tree struct {
	topo     *topology.Topology
	root     NodeID
	parent   []NodeID
	children [][]NodeID
	level    []int
	rank     []int
	member   []bool
	alive    []bool
}

// BuildBFS constructs the tree rooted at root covering every node that is
// (a) within maxDist meters of the root (0 means no distance limit) and
// (b) reachable from the root through such nodes. Parents are chosen with
// the paper's policy: the lowest-level neighbor, ties broken by lowest ID.
func BuildBFS(topo *topology.Topology, root NodeID, maxDist float64) (*Tree, error) {
	n := topo.NumNodes()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("routing: root %d out of range [0,%d)", root, n)
	}
	eligible := make([]bool, n)
	rootPos := topo.Position(root)
	for i := 0; i < n; i++ {
		eligible[i] = maxDist <= 0 || rootPos.InRange(topo.Position(NodeID(i)), maxDist)
	}
	if !eligible[root] {
		return nil, fmt.Errorf("routing: root excluded by distance limit")
	}

	t := &Tree{
		topo:     topo,
		root:     root,
		parent:   make([]NodeID, n),
		children: make([][]NodeID, n),
		level:    make([]int, n),
		rank:     make([]int, n),
		member:   make([]bool, n),
		alive:    make([]bool, n),
	}
	for i := range t.parent {
		t.parent[i] = None
		t.level[i] = -1
	}
	t.level[root] = 0
	t.member[root] = true
	t.alive[root] = true

	// Under gray-zone propagation the candidate graph reaches past the
	// nominal range onto links that fade most frames; an idealized
	// min-hop build over it would systematically pick those longest,
	// weakest links as tree edges. Restrict the BFS to nominal-range
	// links — the reliable core the paper's connectivity assumes. With
	// the unit-disc default the two radii coincide and nothing changes.
	grayZone := topo.NeighborRange() > topo.Range()

	queue := []NodeID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Deterministic order: Neighbors already ascends by construction,
		// but sort defensively since parent choice depends on visit order.
		nbs := append([]NodeID(nil), topo.Neighbors(cur)...)
		sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
		for _, nb := range nbs {
			if !eligible[nb] || t.member[nb] {
				continue
			}
			if grayZone && !topo.Position(cur).InRange(topo.Position(nb), topo.Range()) {
				continue
			}
			t.member[nb] = true
			t.alive[nb] = true
			t.level[nb] = t.level[cur] + 1
			t.parent[nb] = cur
			t.children[cur] = append(t.children[cur], nb)
			queue = append(queue, nb)
		}
	}
	t.RecomputeRanks()
	return t, nil
}

// Clone returns a deep copy of the tree sharing the immutable topology,
// built from eng's arena (plain heap memory when eng is nil or has no
// arena), so an arena clone is valid until eng's next Reset. Deployment
// caches hand each run its own clone: runs mutate their tree (failure
// marking, re-parenting, detachment) and must never corrupt the cached
// template.
//
// The children rows share one flat slice, each capped at its length: a
// re-parenting append to a row therefore moves that row to the heap
// instead of writing into its neighbour's.
func (t *Tree) Clone(eng *sim.Engine) *Tree {
	n := len(t.parent)
	total := 0
	for _, cs := range t.children {
		total += len(cs)
	}
	c := sim.ArenaGrab[Tree](eng, "routing.tree")
	*c = Tree{
		topo:     t.topo,
		root:     t.root,
		parent:   sim.ArenaSlice[NodeID](eng, "routing.tree.parent", n),
		children: sim.ArenaSlice[[]NodeID](eng, "routing.tree.children", n),
		level:    sim.ArenaSlice[int](eng, "routing.tree.level", n),
		rank:     sim.ArenaSlice[int](eng, "routing.tree.rank", n),
		member:   sim.ArenaSlice[bool](eng, "routing.tree.member", n),
		alive:    sim.ArenaSlice[bool](eng, "routing.tree.alive", n),
	}
	copy(c.parent, t.parent)
	copy(c.level, t.level)
	copy(c.rank, t.rank)
	copy(c.member, t.member)
	copy(c.alive, t.alive)
	flat := sim.ArenaSlice[NodeID](eng, "routing.tree.flat", total)
	for i, cs := range t.children {
		if k := len(cs); k > 0 {
			c.children[i] = flat[:k:k]
			copy(c.children[i], cs)
			flat = flat[k:]
		}
	}
	return c
}

// Root returns the tree root.
func (t *Tree) Root() NodeID { return t.root }

// Alive reports whether id is a live tree member.
func (t *Tree) Alive(id NodeID) bool {
	return id >= 0 && int(id) < len(t.member) && t.member[id] && t.alive[id]
}

// Parent returns id's parent, or None for the root and non-members.
func (t *Tree) Parent(id NodeID) NodeID {
	if !t.member[id] {
		return None
	}
	return t.parent[id]
}

// Children returns id's children. The returned slice must not be modified.
func (t *Tree) Children(id NodeID) []NodeID { return t.children[id] }

// Level returns id's hop distance from the root, or -1 for non-members.
func (t *Tree) Level(id NodeID) int {
	if !t.member[id] {
		return -1
	}
	return t.level[id]
}

// Rank returns id's rank: the maximum hop count to any descendant
// (0 for leaves), or -1 for non-members.
func (t *Tree) Rank(id NodeID) int {
	if !t.member[id] {
		return -1
	}
	return t.rank[id]
}

// MaxRank returns M, the rank of the root.
func (t *Tree) MaxRank() int { return t.rank[t.root] }

// IsLeaf reports whether id is a live member with no live children.
func (t *Tree) IsLeaf(id NodeID) bool {
	if !t.Alive(id) {
		return false
	}
	return len(t.children[id]) == 0
}

// AppendMembers appends all live member IDs to dst in ascending order
// and returns the extended slice.
func (t *Tree) AppendMembers(dst []NodeID) []NodeID {
	for i := range t.member {
		if t.member[i] && t.alive[i] {
			dst = append(dst, NodeID(i))
		}
	}
	return dst
}

// Size returns the number of live members.
func (t *Tree) Size() int {
	n := 0
	for i := range t.member {
		if t.member[i] && t.alive[i] {
			n++
		}
	}
	return n
}

// InSubtree reports whether candidate lies in the subtree rooted at id.
func (t *Tree) InSubtree(id, candidate NodeID) bool {
	for cur := candidate; cur != None; cur = t.parent[cur] {
		if cur == id {
			return true
		}
	}
	return false
}

// Path returns the tree route from a to b: up from a to their lowest
// common ancestor, then down to b. Both endpoints are included. Returns
// nil if either endpoint is not a live member.
func (t *Tree) Path(a, b NodeID) []NodeID {
	if !t.Alive(a) || !t.Alive(b) {
		return nil
	}
	// Ancestors of a, in order, with positions.
	up := []NodeID{a}
	pos := map[NodeID]int{a: 0}
	for cur := a; cur != t.root; {
		cur = t.parent[cur]
		if cur == None {
			return nil // orphaned mid-recovery
		}
		pos[cur] = len(up)
		up = append(up, cur)
	}
	// Walk b upward to the first shared ancestor.
	var down []NodeID
	lca := b
	for {
		if _, ok := pos[lca]; ok {
			break
		}
		down = append(down, lca)
		lca = t.parent[lca]
		if lca == None {
			return nil
		}
	}
	path := append([]NodeID(nil), up[:pos[lca]+1]...)
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i])
	}
	return path
}

// RecomputeRanks recomputes every member's rank bottom-up. It runs after
// any structural change.
func (t *Tree) RecomputeRanks() {
	var walk func(id NodeID) int
	walk = func(id NodeID) int {
		r := 0
		for _, c := range t.children[id] {
			if cr := walk(c) + 1; cr > r {
				r = cr
			}
		}
		t.rank[id] = r
		return r
	}
	walk(t.root)
}

func (t *Tree) recomputeLevels() {
	var walk func(id NodeID, lvl int)
	walk = func(id NodeID, lvl int) {
		t.level[id] = lvl
		for _, c := range t.children[id] {
			walk(c, lvl+1)
		}
	}
	walk(t.root, 0)
}

// detach removes the child edge parent→child. It does not alter ranks.
func (t *Tree) detach(child NodeID) {
	p := t.parent[child]
	if p == None {
		return
	}
	cs := t.children[p]
	for i, c := range cs {
		if c == child {
			t.children[p] = append(cs[:i:i], cs[i+1:]...)
			break
		}
	}
	t.parent[child] = None
}

// Reparent moves child under newParent, recomputing levels and ranks.
// It fails if the move would create a cycle (newParent inside child's
// subtree), if either node is not a member, if newParent is dead, or if
// the two nodes are not radio neighbors. A child that was (perhaps
// falsely) marked dead is revived: a node initiating a re-parent is
// evidently alive, and this is how a victim of false-positive failure
// detection rejoins the tree.
func (t *Tree) Reparent(child, newParent NodeID) error {
	if child == t.root {
		return fmt.Errorf("routing: cannot reparent the root")
	}
	if !t.member[child] || !t.Alive(newParent) {
		return fmt.Errorf("routing: reparent %d under %d: not usable members", child, newParent)
	}
	t.alive[child] = true
	if t.InSubtree(child, newParent) {
		return fmt.Errorf("routing: reparent %d under %d would create a cycle", child, newParent)
	}
	if !t.topo.Connected(child, newParent) {
		return fmt.Errorf("routing: %d and %d are not radio neighbors", child, newParent)
	}
	t.detach(child)
	t.parent[child] = newParent
	t.children[newParent] = append(t.children[newParent], child)
	t.recomputeLevels()
	t.RecomputeRanks()
	return nil
}

// FindNewParent returns the best new parent for orphan following the
// paper's policy — the live neighboring tree member with the lowest level
// that is outside orphan's own subtree — or None if no candidate exists.
// Nodes in exclude (e.g. the suspected-failed old parent) are skipped.
func (t *Tree) FindNewParent(orphan NodeID, exclude ...NodeID) NodeID {
	best := None
	bestLevel := -1
	for _, nb := range t.topo.Neighbors(orphan) {
		if !t.Alive(nb) || t.InSubtree(orphan, nb) {
			continue
		}
		skip := false
		for _, x := range exclude {
			if nb == x {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if best == None || t.level[nb] < bestLevel {
			best, bestLevel = nb, t.level[nb]
		}
	}
	return best
}

// MarkDead records id as failed and removes it from its parent's children
// (the parent-side §4.3 detection). It leaves id's child edges in place:
// each child discovers the failure through its own transmission failures
// and re-parents itself (child-side recovery).
// Dead nodes are skipped by FindNewParent. No-op for the root or for
// already-dead nodes.
func (t *Tree) MarkDead(id NodeID) {
	if id == t.root || !t.member[id] || !t.alive[id] {
		return
	}
	t.alive[id] = false
	t.detach(id)
	t.RecomputeRanks()
}

// Validate checks structural invariants: parent/child symmetry, levels
// consistent with parents, ranks consistent bottom-up, and acyclicity.
// It returns the first violation found, or nil.
func (t *Tree) Validate() error {
	for i := range t.member {
		id := NodeID(i)
		if !t.member[i] || !t.alive[i] {
			continue
		}
		p := t.parent[id]
		if id == t.root {
			if p != None {
				return fmt.Errorf("root has parent %d", p)
			}
			continue
		}
		if p == None {
			return fmt.Errorf("non-root member %d has no parent", id)
		}
		found := false
		for _, c := range t.children[p] {
			if c == id {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("node %d not in children of its parent %d", id, p)
		}
		if t.level[id] != t.level[p]+1 {
			return fmt.Errorf("node %d level %d, parent level %d", id, t.level[id], t.level[p])
		}
		want := 0
		for _, c := range t.children[id] {
			if r := t.rank[c] + 1; r > want {
				want = r
			}
		}
		if t.rank[id] != want {
			return fmt.Errorf("node %d rank %d, want %d", id, t.rank[id], want)
		}
	}
	// Acyclicity: walking parents from any member reaches the root.
	for i := range t.member {
		if !t.member[i] || !t.alive[i] {
			continue
		}
		steps := 0
		for cur := NodeID(i); cur != t.root; cur = t.parent[cur] {
			if cur == None || steps > len(t.member) {
				return fmt.Errorf("node %d does not reach root", i)
			}
			steps++
		}
	}
	return nil
}
