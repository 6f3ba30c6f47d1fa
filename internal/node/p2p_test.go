package node

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// TestP2PEndToEnd runs a peer flow between two leaves of a Y-shaped tree
// (through their common ancestor) over the full stack with Safe Sleep.
func TestP2PEndToEnd(t *testing.T) {
	eng := sim.New(1)
	// 0 — 1 — {2, 3}: peers 2 and 3 communicate through node 1.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 100, Y: 100}}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.DefaultConfig())

	spec := core.P2PSpec{
		ID:           -10,
		Src:          2,
		Dst:          3,
		Period:       time.Second,
		Phase:        300 * time.Millisecond,
		HopAllowance: 30 * time.Millisecond,
	}

	var consumed []int
	nodes := make(map[NodeID]*Node)
	for _, id := range tree.Members() {
		id := id
		n := New(eng, id, tree, ch,
			radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: 500 * time.Microsecond},
			mac.DefaultConfig())
		ss := core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{
			BreakEven: -1, WakeAhead: -1, MACBusy: n.MAC,
		})
		n.InstallSleep(ss)
		n.InstallAgent(core.NewDTS(n, ss), nil, query.DefaultConfig(), 1)
		n.InstallP2P(func(m *core.P2PMessage) {
			if id == 3 {
				consumed = append(consumed, m.Interval)
			}
		})
		nodes[id] = n
	}
	path := tree.Path(spec.Src, spec.Dst)
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("Path = %v, want [2 1 3]", path)
	}
	for _, id := range tree.Members() {
		if err := nodes[id].Peer.Register(spec, path); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(5400 * time.Millisecond)

	// Messages k=0..5 released at 0.3s..5.3s; allow the last to be in
	// flight: at least 5 must have been consumed, in order.
	if len(consumed) < 5 {
		t.Fatalf("destination consumed %d messages, want >= 5 (%v)", len(consumed), consumed)
	}
	for i, k := range consumed {
		if k != i {
			t.Fatalf("consumption order broken: %v", consumed)
		}
	}
	// The root (node 0) is off the path: it must not relay and may sleep
	// essentially the whole time.
	if st := nodes[0].Peer.Stats(); st.Relayed != 0 || st.Consumed != 0 {
		t.Fatalf("off-path node participated: %+v", st)
	}
	// (The off-path root carries no expectations at all, so Safe Sleep
	// leaves its radio on — expectation-less nodes never self-schedule.)
	// The relay slept between slots too.
	if dc := nodes[1].Radio.DutyCycle(); dc > 0.2 {
		t.Errorf("relay duty %.3f, want mostly asleep", dc)
	}
	// Destination latency ≈ 2 hops × 30 ms + MAC time.
	st := nodes[3].Peer.Stats()
	mean := st.LatencySum / time.Duration(st.Consumed)
	if mean < 30*time.Millisecond || mean > 120*time.Millisecond {
		t.Errorf("mean p2p latency %v, want ~60ms for 2 slotted hops", mean)
	}
}

func TestP2PValidation(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(3, 100), 125)
	tree, _ := routing.BuildBFS(topo, 0, 0)
	ch, _ := phy.NewChannel(eng, topo, phy.DefaultConfig())
	n := New(eng, 1, tree, ch, radio.Config{}, mac.DefaultConfig())
	n.InstallAgent(core.NewDTS(n, core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{Disabled: true})), nil, query.DefaultConfig(), 1)
	p := n.InstallP2P(nil)

	good := core.P2PSpec{ID: -1, Src: 2, Dst: 0, Period: time.Second}
	if err := p.Register(core.P2PSpec{ID: -1, Src: 2, Dst: 2, Period: time.Second}, nil); err == nil {
		t.Error("src==dst accepted")
	}
	if err := p.Register(good, []NodeID{2}); err == nil {
		t.Error("truncated path accepted")
	}
	path := tree.Path(2, 0)
	if err := p.Register(good, path); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(good, path); err == nil {
		t.Error("duplicate flow accepted")
	}
}
