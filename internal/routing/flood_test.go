package routing

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

func TestFromParentsChain(t *testing.T) {
	topo, err := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FromParents(topo, 0, []NodeID{None, 0, 1, 2})
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
	if _, err := FromParents(topo, 0, []NodeID{None, None, None, 0}); err == nil {
		t.Fatal("edge between nodes 300m apart accepted")
	}
}

func TestFromParentsRejectsCycle(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	if _, err := FromParents(topo, 0, []NodeID{None, 2, 1, None}); err == nil {
		t.Fatal("parent cycle accepted")
	}
}

func TestFromParentsRejectsOrphanChain(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(4, 100), 125)
	// 3's chain (3→2) never reaches the root.
	if _, err := FromParents(topo, 0, []NodeID{None, None, None, 2}); err == nil {
		t.Fatal("orphan chain accepted")
	}
}

func TestFromParentsRejectsRootParent(t *testing.T) {
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	if _, err := FromParents(topo, 0, []NodeID{1, None}); err == nil {
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

// TestBuildFloodOnWarmArenaMatchesFresh: a flood whose channel, radios,
// MACs and stations come from an arena, warmed by the floods of other
// seeds and of another propagation model, builds exactly the tree of a
// flood on a fresh engine without one. It covers the unit disc and the
// shadowing gray zone with three rounds, as experiment builds them.
func TestBuildFloodOnWarmArenaMatchesFresh(t *testing.T) {
	shadow, err := phy.NewPropagation(phy.Shadowing, nil)
	if err != nil {
		t.Fatal(err)
	}
	type model struct {
		name   string
		prop   phy.Propagation
		rounds int
	}
	models := []model{{"disc", nil, 0}, {"shadowing", shadow, 3}}
	eng := sim.New(1)
	eng.SetArena(sim.NewArena())
	for pass := 0; pass < 2; pass++ {
		for _, m := range models {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := topology.DefaultConfig()
				cfg.NeighborRange = cfg.Range
				fcfg := DefaultFloodConfig()
				if m.prop != nil {
					cfg.NeighborRange = m.prop.MaxRange(cfg.Range)
					fcfg.ChannelCfg.Propagation = m.prop
				}
				fcfg.Rounds = m.rounds
				topo, err := topology.New(rand.New(rand.NewSource(seed)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				root := topo.CentralNode()
				fresh, err := BuildFlood(seed+1, topo, root, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.Reset(seed + 1)
				warm, err := BuildFloodOn(eng, topo, root, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, warm) {
					t.Fatalf("pass %d %s seed %d: the arena flood built another tree", pass, m.name, seed)
				}
				if err := warm.Validate(); err != nil {
					t.Fatalf("pass %d %s seed %d: %v", pass, m.name, seed, err)
				}
			}
		}
	}
}
