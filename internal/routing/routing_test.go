package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

func chainTree(t *testing.T, n int) (*topology.Topology, *Tree) {
	t.Helper()
	topo, err := topology.FromPositions(geom.LinePlacement(n, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo, tree
}

// yTree builds:
//
//	0 - 1 - 2
//	     \
//	      3
//
// node 1 at (100,0) has children 2 at (200,0) and 3 at (100,100).
func yTree(t *testing.T) (*topology.Topology, *Tree) {
	t.Helper()
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 100, Y: 100}}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo, tree
}

func TestBuildChain(t *testing.T) {
	_, tree := chainTree(t, 5)
	if tree.Root() != 0 {
		t.Fatalf("root = %d", tree.Root())
	}
	for i := 1; i < 5; i++ {
		if got := tree.Parent(NodeID(i)); got != NodeID(i-1) {
			t.Fatalf("Parent(%d) = %d, want %d", i, got, i-1)
		}
		if got := tree.Level(NodeID(i)); got != i {
			t.Fatalf("Level(%d) = %d, want %d", i, got, i)
		}
	}
	// Rank: leaf node 4 has rank 0; root has rank 4 = M.
	if got := tree.Rank(4); got != 0 {
		t.Fatalf("Rank(4) = %d, want 0", got)
	}
	if got := tree.MaxRank(); got != 4 {
		t.Fatalf("MaxRank = %d, want 4", got)
	}
	if !tree.IsLeaf(4) || tree.IsLeaf(2) {
		t.Fatal("leaf detection wrong")
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestYTreeRanks(t *testing.T) {
	_, tree := yTree(t)
	// Children of 1: nodes 2 and 3, both leaves.
	if got := len(tree.Children(1)); got != 2 {
		t.Fatalf("node 1 has %d children, want 2", got)
	}
	if tree.Rank(1) != 1 || tree.Rank(0) != 2 {
		t.Fatalf("ranks: r(1)=%d r(0)=%d, want 1, 2", tree.Rank(1), tree.Rank(0))
	}
}

func TestDistanceLimitExcludesFarNodes(t *testing.T) {
	topo, err := topology.FromPositions(geom.LinePlacement(6, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes at 0,100,200,300 are within 300m; 400,500 are not.
	if got := tree.AppendMembers(nil); !slices.Equal(got, []NodeID{0, 1, 2, 3}) {
		t.Fatalf("members = %v, want [0 1 2 3]", got)
	}
	if tree.Level(4) != -1 || tree.Rank(4) != -1 || tree.Parent(4) != None {
		t.Fatal("non-member should have sentinel level/rank/parent")
	}
	if got := tree.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
}

func TestUnreachableWithinDistanceExcluded(t *testing.T) {
	// Node 2 is within distance but only reachable through node 1 which is
	// excluded by distance: 0 at origin, 1 at 400m, 2 at 500m. Limit 350m
	// excludes 1, making 2 unreachable... use a geometry where hop-through
	// is cut: 0-(200)-X where X within distance but out of radio range.
	pts := []geom.Point{{X: 0}, {X: 300}}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(tree.AppendMembers(nil), 1) {
		t.Fatal("radio-unreachable node became a member")
	}
}

func TestLowestLevelParentSelection(t *testing.T) {
	// Diamond: root 0; nodes 1,2 at level 1; node 3 reachable from both 1
	// and 2. Lowest-ID tie-break picks 1.
	pts := []geom.Point{
		{X: 0, Y: 0},
		{X: 100, Y: 50},
		{X: 100, Y: -50},
		{X: 200, Y: 0},
	}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Parent(3); got != 1 {
		t.Fatalf("Parent(3) = %d, want 1 (lowest-ID tie-break)", got)
	}
}

func TestReparent(t *testing.T) {
	// Chain 0-1-2-3-4 plus node 5 near node 1; move 5 from 1 to... it is
	// only connected to 1. Use the Y tree: move 3 under 2? They are 141m
	// apart with 125m range: not neighbors. Build a denser square.
	pts := []geom.Point{
		{X: 0, Y: 0},    // 0 root
		{X: 100, Y: 0},  // 1
		{X: 0, Y: 100},  // 2
		{X: 100, Y: 80}, // 3: neighbor of 1 and 2 (within 125 of both)
	}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Parent(3) != 1 {
		t.Fatalf("precondition: Parent(3) = %d, want 1", tree.Parent(3))
	}
	if err := tree.Reparent(3, 2); err != nil {
		t.Fatalf("Reparent: %v", err)
	}
	if tree.Parent(3) != 2 {
		t.Fatalf("Parent(3) = %d after reparent, want 2", tree.Parent(3))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after reparent: %v", err)
	}
	// Node 1 became a leaf; its rank must have dropped to 0.
	if got := tree.Rank(1); got != 0 {
		t.Fatalf("Rank(1) = %d after losing its child, want 0", got)
	}
}

func TestReparentRejectsCycle(t *testing.T) {
	_, tree := chainTree(t, 3)
	if err := tree.Reparent(1, 2); err == nil {
		t.Fatal("reparenting a node under its own descendant must fail")
	}
}

func TestReparentRejectsNonNeighbor(t *testing.T) {
	_, tree := chainTree(t, 4)
	if err := tree.Reparent(3, 0); err == nil {
		t.Fatal("reparenting across >range distance must fail")
	}
}

func TestReparentRejectsRoot(t *testing.T) {
	_, tree := chainTree(t, 3)
	if err := tree.Reparent(0, 1); err == nil {
		t.Fatal("reparenting the root must fail")
	}
}

func TestMarkDead(t *testing.T) {
	_, tree := yTree(t)
	tree.MarkDead(1)
	if tree.Alive(1) {
		t.Fatal("failed node still alive")
	}
	if slices.Contains(tree.AppendMembers(nil), 1) {
		t.Fatal("failed node still listed among the live members")
	}
	if tree.Level(1) != 1 {
		t.Fatalf("failed node has level %d, want 1: it should remain a (dead) member for bookkeeping", tree.Level(1))
	}
	if tree.Size() != 3 {
		t.Fatalf("Size = %d after failure, want 3", tree.Size())
	}
	for _, c := range tree.Children(0) {
		if c == 1 {
			t.Fatal("failed node still among its parent's children")
		}
	}
	// Child-side recovery: the dead node's children keep their edges
	// until each re-parents itself.
	for _, c := range []NodeID{2, 3} {
		if tree.Parent(c) != 1 {
			t.Fatalf("child %d has parent %d, want 1 until it re-parents", c, tree.Parent(c))
		}
	}
}

func TestMarkDeadRootNoop(t *testing.T) {
	_, tree := chainTree(t, 3)
	tree.MarkDead(0)
	if !tree.Alive(0) || tree.Size() != 3 {
		t.Fatalf("MarkDead(root): alive=%t size=%d, want the root untouched", tree.Alive(0), tree.Size())
	}
}

func TestFindNewParent(t *testing.T) {
	// Square mesh where node 3 can fall back from 1 to 2.
	pts := []geom.Point{
		{X: 0, Y: 0},
		{X: 100, Y: 0},
		{X: 0, Y: 100},
		{X: 100, Y: 80},
	}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree.MarkDead(1)
	np := tree.FindNewParent(3)
	if np != 2 {
		t.Fatalf("FindNewParent(3) = %d, want 2", np)
	}
	if err := tree.Reparent(3, np); err != nil {
		t.Fatalf("Reparent onto found parent: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after recovery: %v", err)
	}
}

func TestFindNewParentNoCandidate(t *testing.T) {
	_, tree := chainTree(t, 3)
	tree.MarkDead(1)
	if got := tree.FindNewParent(2); got != None {
		t.Fatalf("FindNewParent = %d, want None (only neighbor is dead)", got)
	}
}

func TestChainRanks(t *testing.T) {
	_, tree := chainTree(t, 4)
	for i := 0; i < 4; i++ {
		if got := tree.Rank(NodeID(i)); got != 3-i {
			t.Fatalf("Rank(%d) = %d on a 4-chain, want %d", i, got, 3-i)
		}
	}
}

// TestTreeInvariantsProperty builds trees over random deployments and
// checks Validate plus the rank/level relationships hold.
func TestTreeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := topology.New(rng, topology.Config{NumNodes: 40, AreaSide: 400, Range: 125})
		if err != nil {
			return false
		}
		root := topo.CentralNode()
		tree, err := BuildBFS(topo, root, 300)
		if err != nil {
			return false
		}
		if err := tree.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		// Every member's rank is strictly less than its parent's, and
		// rank + level <= M + ... (rank of child < rank of parent).
		for _, id := range tree.AppendMembers(nil) {
			if id == tree.Root() {
				continue
			}
			if tree.Rank(id) >= tree.Rank(tree.Parent(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBadRootErrors(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(3, 100), 125)
	if _, err := BuildBFS(topo, 99, 0); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

// TestCloneOnArenaKeepsRowsApart: an arena clone lays every children
// row out in one flat slice, each capped at its length, so re-parenting
// into a row never writes into the next row, and neither the clone's
// changes nor a later clone touch the template. The tree:
//
//	0 - 1 - 3 - 5
//	 \     /
//	  2 - 4
//
// with 3 a neighbour of both 1 and 2: moving 3 under 2 appends to row 2,
// which the flat slice follows with row 3.
func TestCloneOnArenaKeepsRowsApart(t *testing.T) {
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: 100, Y: 100}, {X: -100, Y: 100}, {X: 200, Y: 100}}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, err := BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(tmpl.Children(1), []NodeID{3}) || !slices.Equal(tmpl.Children(2), []NodeID{4}) || !slices.Equal(tmpl.Children(3), []NodeID{5}) {
		t.Fatalf("unexpected template rows %v %v %v", tmpl.Children(1), tmpl.Children(2), tmpl.Children(3))
	}
	eng := sim.New(1)
	eng.SetArena(sim.NewArena())
	c := tmpl.Clone(eng)
	if err := c.Reparent(3, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Children(3); !slices.Equal(got, []NodeID{5}) {
		t.Fatalf("re-parenting into row 2 changed row 3 to %v", got)
	}
	if got := c.Children(2); !slices.Equal(got, []NodeID{4, 3}) {
		t.Fatalf("row 2 = %v, want [4 3]", got)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone after re-parent: %v", err)
	}
	if !slices.Equal(tmpl.Children(1), []NodeID{3}) || !slices.Equal(tmpl.Children(2), []NodeID{4}) || tmpl.Parent(3) != 1 {
		t.Fatal("re-parenting the clone changed the template")
	}
	eng.Reset(1)
	again := tmpl.Clone(eng)
	for id := NodeID(0); id < 6; id++ {
		if !slices.Equal(again.Children(id), tmpl.Children(id)) || again.Parent(id) != tmpl.Parent(id) || again.Rank(id) != tmpl.Rank(id) {
			t.Fatalf("node %d: clone after reset differs from the template", id)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		eng.Reset(1)
		tmpl.Clone(eng)
	}); allocs != 0 {
		t.Errorf("a warm arena clone allocates %.0f times, want 0", allocs)
	}
}
