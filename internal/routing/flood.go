package routing

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// FromParents builds a tree from explicit parent pointers: parents[i] is
// node i's parent, or None when node i is not a member. The root's entry
// must be None. Entries whose parent chain does not reach root are
// rejected. Levels are the parent-chain depths and ranks are computed
// bottom-up. Children rows list child IDs in ascending order, since they
// are filled by walking the children in ID order. The tree does not
// keep parents.
func FromParents(topo *topology.Topology, root NodeID, parents []NodeID) (*Tree, error) {
	n := topo.NumNodes()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("routing: root %d out of range [0,%d)", root, n)
	}
	if len(parents) != n {
		return nil, fmt.Errorf("routing: %d parent entries for %d nodes", len(parents), n)
	}
	if parents[root] != None {
		return nil, fmt.Errorf("routing: root cannot have a parent")
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
	copy(t.parent, parents)
	for i := range t.level {
		t.level[i] = -1
	}
	t.member[root] = true
	t.alive[root] = true
	t.level[root] = 0

	// The children rows share one flat slice, each capped at its length
	// like a Clone's. rank counts each parent's children until
	// RecomputeRanks sets it.
	edges := 0
	for child, p := range parents {
		if p == None {
			continue
		}
		if !topo.Connected(NodeID(child), p) {
			return nil, fmt.Errorf("routing: %d and its parent %d are not neighbors", child, p)
		}
		t.member[child] = true
		t.alive[child] = true
		t.rank[p]++
		edges++
	}
	flat := make([]NodeID, edges)
	for i, k := range t.rank {
		if k > 0 {
			t.children[i] = flat[:0:k]
			flat = flat[k:]
		}
	}
	clear(t.rank)
	for child, p := range parents {
		if p != None {
			t.children[p] = append(t.children[p], NodeID(child))
		}
	}
	// Levels via the parent chains; detect orphan chains and cycles.
	var depth func(id NodeID, hops int) (int, error)
	depth = func(id NodeID, hops int) (int, error) {
		if hops > n {
			return 0, fmt.Errorf("routing: cycle through node %d", id)
		}
		if t.level[id] >= 0 {
			return t.level[id], nil
		}
		p := t.parent[id]
		if p == None {
			return 0, fmt.Errorf("routing: node %d does not reach the root", id)
		}
		d, err := depth(p, hops+1)
		if err != nil {
			return 0, err
		}
		t.level[id] = d + 1
		return d + 1, nil
	}
	for child, p := range parents {
		if p == None {
			continue
		}
		if _, err := depth(NodeID(child), 0); err != nil {
			return nil, err
		}
	}
	t.RecomputeRanks()
	return t, nil
}

// The setup flood's fixed parameters.
const (
	// floodJitter is the maximum random delay before a node rebroadcasts
	// the setup request. Larger jitter lets more candidate parents
	// arrive before a node commits, making trees shallower.
	floodJitter = 20 * time.Millisecond
	// setupBytes is the on-air size of a setup request.
	setupBytes = 14
	// floodDuration bounds the flood simulation.
	floodDuration = 5 * time.Second
)

// FloodConfig parameterizes the simulated setup flood.
type FloodConfig struct {
	// MaxDist restricts membership to nodes within this distance of the
	// root (0 = unlimited); the paper uses 300 m.
	MaxDist float64
	// Rounds is the number of flood rounds; 0 and 1 both mean a single
	// flood. Under probabilistic propagation a single flood can strand
	// nodes whose every inbound setup frame faded; in each extra round,
	// spread evenly across the flood, every committed node rebroadcasts
	// its level once more so stragglers still join the tree.
	Rounds int
	// ChannelCfg is the channel the flood crosses: the run's own
	// propagation model, so the tree matches the run's links.
	ChannelCfg phy.Config
}

// DefaultFloodConfig returns the setup used for the paper's experiments.
func DefaultFloodConfig() FloodConfig {
	return FloodConfig{MaxDist: 300}
}

// setupMsg is the flooded setup request carrying the sender's tree level.
type setupMsg struct {
	level int
}

// floodStation is one node's state during the setup flood; it is also
// the upper layer its MAC delivers to.
type floodStation struct {
	eng       *sim.Engine
	mac       *mac.MAC
	id        NodeID
	eligible  bool
	committed bool
	bestLvl   int
	bestFrom  NodeID
}

// Deliver keeps the lowest-level sender heard as the parent candidate.
// The first setup request heard starts the commit jitter; whatever
// lower-level parent arrives in the window still wins.
func (st *floodStation) Deliver(src phy.NodeID, payload any, bytes int) {
	msg, ok := payload.(setupMsg)
	if !ok || !st.eligible || st.committed {
		return
	}
	if st.bestFrom == None || msg.level < st.bestLvl {
		first := st.bestFrom == None
		st.bestLvl = msg.level
		st.bestFrom = src
		if first {
			delay := time.Duration(st.eng.Rand().Int63n(int64(floodJitter)))
			st.eng.AfterArg(delay, floodCommit, st)
		}
	}
}

// floodCommit ends a station's jitter: it joins under its best parent
// and rebroadcasts its own level.
func floodCommit(x any) {
	st := x.(*floodStation)
	st.committed = true
	st.mac.Send(phy.Broadcast, setupMsg{level: st.bestLvl + 1}, setupBytes, nil)
}

// BuildFlood constructs the routing tree the way the paper's query service
// does (§5): the root floods a setup request over the CSMA/CA MAC; each
// node picks the lowest-level sender heard before its own (jittered)
// rebroadcast as its parent. Contention and jitter produce the deeper,
// less regular trees observed in the paper's ns-2 runs, in contrast to
// the idealized min-hop trees of BuildBFS.
//
// The flood runs in its own throwaway simulation seeded with seed; the
// resulting tree is returned for use in the real run.
func BuildFlood(seed int64, topo *topology.Topology, root NodeID, cfg FloodConfig) (*Tree, error) {
	return BuildFloodOn(sim.New(seed), topo, root, cfg)
}

// BuildFloodOn runs BuildFlood's setup flood on eng, which must be at
// time zero (new, or just Reset to the flood's seed). The flood's
// channel, radios, MACs and stations come from eng's arena when it
// carries one; the returned tree is heap memory, so the caller may
// Reset eng, and with it the arena, as soon as BuildFloodOn returns.
// The tree is the same with or without an arena.
func BuildFloodOn(eng *sim.Engine, topo *topology.Topology, root NodeID, cfg FloodConfig) (*Tree, error) {
	ch, err := phy.NewChannel(eng, topo, cfg.ChannelCfg)
	if err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	rootPos := topo.Position(root)
	stations := sim.ArenaSlice[floodStation](eng, "routing.flood.stations", n)
	for i := range stations {
		id := NodeID(i)
		st := &stations[i]
		*st = floodStation{
			eng:      eng,
			id:       id,
			eligible: id != root && (cfg.MaxDist <= 0 || rootPos.InRange(topo.Position(id), cfg.MaxDist)),
			bestFrom: None,
		}
		r := radio.New(eng, radio.Config{})
		st.mac = mac.New(eng, ch, id, r, st)
	}

	eng.Schedule(0, func() {
		stations[root].committed = true
		stations[root].mac.Send(phy.Broadcast, setupMsg{level: 0}, setupBytes, nil)
	})
	// Retry rounds: everyone already in the tree re-announces, giving
	// nodes whose first-round frames all faded another chance to hear a
	// parent. Stations are visited in ID order, so rounds stay
	// deterministic.
	for round := 1; round < cfg.Rounds; round++ {
		at := floodDuration * time.Duration(round) / time.Duration(cfg.Rounds)
		eng.Schedule(at, func() {
			for i := range stations {
				st := &stations[i]
				if !st.committed {
					continue
				}
				lvl := 0
				if st.id != root {
					lvl = st.bestLvl + 1
				}
				st.mac.Send(phy.Broadcast, setupMsg{level: lvl}, setupBytes, nil)
			}
		})
	}
	eng.Run(floodDuration)

	parents := sim.ArenaSlice[NodeID](eng, "routing.flood.parents", n)
	for i := range stations {
		parents[i] = stations[i].bestFrom
	}
	return FromParents(topo, root, parents)
}
