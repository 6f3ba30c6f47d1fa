package routing

import (
	"fmt"
	"sort"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// FromParents builds a tree from explicit parent pointers. Every key of
// parents becomes a member; entries whose parent chain does not reach root
// are rejected. Levels are the parent-chain depths and ranks are computed
// bottom-up.
func FromParents(topo *topology.Topology, root NodeID, parents map[NodeID]NodeID) (*Tree, error) {
	n := topo.NumNodes()
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("routing: root %d out of range [0,%d)", root, n)
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
	t.member[root] = true
	t.alive[root] = true
	t.level[root] = 0

	for child, p := range parents {
		if child == root {
			return nil, fmt.Errorf("routing: root cannot have a parent")
		}
		if !topo.Connected(child, p) {
			return nil, fmt.Errorf("routing: %d and its parent %d are not neighbors", child, p)
		}
		t.parent[child] = p
		t.member[child] = true
		t.alive[child] = true
	}
	for child := range parents {
		t.children[t.parent[child]] = append(t.children[t.parent[child]], child)
	}
	// Children in ID order: the map iteration above would otherwise vary
	// per-child processing order (and thus event order) across runs.
	for i := range t.children {
		sort.Slice(t.children[i], func(a, b int) bool { return t.children[i][a] < t.children[i][b] })
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
	for child := range parents {
		if _, err := depth(child, 0); err != nil {
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

// floodStation is one node's state during the setup flood.
type floodStation struct {
	id        NodeID
	eligible  bool
	committed bool
	bestLvl   int
	bestFrom  NodeID
	mac       *mac.MAC
}

type floodRx struct {
	st  *floodStation
	fn  func(st *floodStation, msg setupMsg, from NodeID)
	mac *mac.MAC
}

func (r *floodRx) Deliver(src phy.NodeID, payload any, bytes int) {
	if msg, ok := payload.(setupMsg); ok {
		r.fn(r.st, msg, src)
	}
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
	eng := sim.New(seed)
	ch, err := phy.NewChannel(eng, topo, cfg.ChannelCfg)
	if err != nil {
		return nil, err
	}
	rootPos := topo.Position(root)

	stations := make([]*floodStation, topo.NumNodes())

	onSetup := func(st *floodStation, msg setupMsg, from NodeID) {
		if !st.eligible || st.committed || st.id == root {
			return
		}
		if st.bestFrom == None || msg.level < st.bestLvl {
			first := st.bestFrom == None
			st.bestLvl = msg.level
			st.bestFrom = from
			if first {
				// Commit after a short jitter; whatever lower-level parent
				// arrives in the window still wins.
				delay := time.Duration(eng.Rand().Int63n(int64(floodJitter)))
				eng.After(delay, func() {
					st.committed = true
					st.mac.Send(phy.Broadcast, setupMsg{level: st.bestLvl + 1}, setupBytes, nil)
				})
			}
		}
	}

	for i := 0; i < topo.NumNodes(); i++ {
		id := NodeID(i)
		st := &floodStation{
			id:       id,
			eligible: cfg.MaxDist <= 0 || rootPos.InRange(topo.Position(id), cfg.MaxDist),
			bestFrom: None,
		}
		rx := &floodRx{st: st, fn: onSetup}
		r := radio.New(eng, radio.Config{})
		st.mac = mac.New(eng, ch, id, r, rx)
		stations[i] = st
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
			for _, st := range stations {
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

	parents := make(map[NodeID]NodeID)
	for _, st := range stations {
		if st.id != root && st.bestFrom != None {
			parents[st.id] = st.bestFrom
		}
	}
	return FromParents(topo, root, parents)
}
