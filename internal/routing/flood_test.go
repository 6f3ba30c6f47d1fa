package routing

import (
	"math/rand"
	"testing"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/topology"
)

func TestFromParentsChain(t *testing.T) {
	topo, err := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromParents(topo, 0, map[NodeID]NodeID{1: 0, 2: 1, 3: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Level(3) != 3 || tree.Rank(0) != 3 {
		t.Fatalf("levels/ranks wrong: level(3)=%d rank(0)=%d", tree.Level(3), tree.Rank(0))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFromParentsRejectsNonNeighborEdge(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	if _, err := FromParents(topo, 0, map[NodeID]NodeID{3: 0}); err == nil {
		t.Fatal("edge between nodes 300m apart accepted")
	}
}

func TestFromParentsRejectsCycle(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	if _, err := FromParents(topo, 0, map[NodeID]NodeID{1: 2, 2: 1}); err == nil {
		t.Fatal("parent cycle accepted")
	}
}

func TestFromParentsRejectsOrphanChain(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	// 3's chain (3→2) never reaches the root.
	if _, err := FromParents(topo, 0, map[NodeID]NodeID{3: 2}); err == nil {
		t.Fatal("orphan chain accepted")
	}
}

func TestFromParentsRejectsRootParent(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	if _, err := FromParents(topo, 0, map[NodeID]NodeID{0: 1}); err == nil {
		t.Fatal("root with a parent accepted")
	}
}

func TestBuildFloodChain(t *testing.T) {
	topo, err := topology.FromPositions(geom.LinePlacement(5, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildFlood(1, topo, 0, DefaultFloodConfig())
	if err != nil {
		t.Fatal(err)
	}
	// On a chain there is exactly one possible tree.
	if tree.Size() != 4 { // 300m limit excludes nodes 4 (400m)
		t.Fatalf("Size = %d, want 4 (300m limit)", tree.Size())
	}
	for i := 1; i <= 3; i++ {
		if tree.Parent(NodeID(i)) != NodeID(i-1) {
			t.Fatalf("Parent(%d) = %d", i, tree.Parent(NodeID(i)))
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuildFloodNoDistanceLimit(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(5, 100), 125)
	cfg := DefaultFloodConfig()
	cfg.MaxDist = 0
	tree, err := BuildFlood(1, topo, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 5 {
		t.Fatalf("Size = %d, want all 5", tree.Size())
	}
}

func TestBuildFloodRandomDeploymentsProduceValidTrees(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		topo, err := topology.New(rng, topology.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		root := topo.CentralNode()
		tree, err := BuildFlood(seed, topo, root, DefaultFloodConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The flood should cover nearly every node within 300m of the root.
		eligible := 0
		for i := 0; i < topo.NumNodes(); i++ {
			if topo.Position(NodeID(i)).InRange(topo.Position(root), 300) {
				eligible++
			}
		}
		if tree.Size() < eligible*8/10 {
			t.Errorf("seed %d: tree covers %d of %d eligible nodes", seed, tree.Size(), eligible)
		}
		// Flood trees are at least as deep as the min-hop tree.
		bfs, err := BuildBFS(topo, root, 300)
		if err != nil {
			t.Fatal(err)
		}
		if tree.MaxRank() < bfs.MaxRank() {
			t.Errorf("seed %d: flood tree shallower (%d) than BFS (%d)?", seed, tree.MaxRank(), bfs.MaxRank())
		}
	}
}

func TestBuildFloodDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	topo, err := topology.New(rng, topology.Config{NumNodes: 40, AreaSide: 400, Range: 125})
	if err != nil {
		t.Fatal(err)
	}
	a, err := BuildFlood(7, topo, 0, DefaultFloodConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFlood(7, topo, 0, DefaultFloodConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < topo.NumNodes(); i++ {
		if a.Parent(NodeID(i)) != b.Parent(NodeID(i)) {
			t.Fatalf("node %d parent differs across identical floods", i)
		}
	}
}
