package node

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// TestRelayEndToEnd runs each §3 route shape over the full stack with
// Safe Sleep active and no upward queries: every consumer must accept
// every released message in order, through radios that sleep between
// slots.
func TestRelayEndToEnd(t *testing.T) {
	const hop = 30 * time.Millisecond
	cases := []struct {
		name string
		flow query.ID
		pts  []geom.Point
		// register installs the flow on node n.
		register func(n *Node, tree *routing.Tree) error
		// consumers each accept at least want messages; sleeper must keep
		// its duty cycle low; offPath, if set, must neither relay nor
		// consume.
		consumers      []NodeID
		want           int
		sleeper        NodeID
		offPath        NodeID
		latLow, latMax time.Duration
	}{
		{
			// A 5-node chain: messages k=0..4 released at 0.2s..4.2s; every
			// node, the root included, consumes all five.
			name: "dissemination down a chain",
			flow: -1,
			pts:  geom.LinePlacement(5, 100),
			register: func(n *Node, _ *routing.Tree) error {
				return n.Flows.Disseminate(core.DisseminationSpec{ID: -1, Period: time.Second, Phase: 200 * time.Millisecond, HopAllowance: hop})
			},
			consumers: []NodeID{0, 1, 2, 3, 4},
			want:      5,
			sleeper:   4,
			offPath:   -1,
			// Node 4 receives at release + 4 hops.
			latLow: 3 * hop, latMax: 5 * hop,
		},
		{
			// 0 — 1 — {2, 3}: peers 2 and 3 talk through node 1, and the
			// root is off the path. Messages k=0..5 released at
			// 0.3s..5.3s; the last may still be in flight.
			name: "peer flow between two leaves",
			flow: -10,
			pts:  []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}, {X: 100, Y: 100}},
			register: func(n *Node, tree *routing.Tree) error {
				path := tree.Path(2, 3)
				if len(path) != 3 || path[1] != 1 {
					t.Fatalf("Path = %v, want [2 1 3]", path)
				}
				return n.Flows.Peer(core.P2PSpec{ID: -10, Src: 2, Dst: 3, Period: time.Second, Phase: 300 * time.Millisecond, HopAllowance: hop}, path)
			},
			consumers: []NodeID{3},
			want:      5,
			sleeper:   1,
			offPath:   0,
			// 2 slotted hops plus MAC time.
			latLow: hop, latMax: 4 * hop,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New(1)
			topo, err := topology.FromPositions(c.pts, 125)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := routing.BuildBFS(topo, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			ch, _ := phy.NewChannel(eng, topo, phy.Config{})
			consumed := make(map[NodeID][]int)
			nodes := make(map[NodeID]*Node)
			for _, id := range tree.AppendMembers(nil) {
				id := id
				n := New(eng, id, tree, ch, radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: 500 * time.Microsecond})
				ss := core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{BreakEven: -1, MACBusy: n.MAC})
				n.InstallSleep(ss)
				n.InstallAgent(core.NewDTS(n, ss, false), nil, query.Config{FailureThreshold: 3}, 1)
				n.InstallRelay(func(m *core.FlowMessage) { consumed[id] = append(consumed[id], m.Interval) })
				if err := c.register(n, tree); err != nil {
					t.Fatal(err)
				}
				nodes[id] = n
			}
			eng.Run(5400 * time.Millisecond)

			for _, id := range c.consumers {
				got := consumed[id]
				if len(got) < c.want {
					t.Fatalf("node %d consumed %v, want >= %d messages", id, got, c.want)
				}
				for i, k := range got {
					if k != i {
						t.Fatalf("node %d consumption order broken: %v", id, got)
					}
				}
			}
			last := c.consumers[len(c.consumers)-1]
			if c.offPath >= 0 {
				if st := nodes[c.offPath].Flows.Stats(c.flow); st != (core.FlowStats{}) || len(consumed[c.offPath]) != 0 {
					t.Fatalf("off-path node %d participated: %+v", c.offPath, st)
				}
			}
			st := nodes[last].Flows.Stats(c.flow)
			if st.Late != 0 {
				t.Errorf("node %d saw %d late messages on an uncontended route", last, st.Late)
			}
			if mean := st.LatencySum / time.Duration(st.Consumed); mean < c.latLow || mean > c.latMax {
				t.Errorf("node %d mean latency %v, want in [%v, %v]", last, mean, c.latLow, c.latMax)
			}
			if dc := nodes[c.sleeper].Radio.DutyCycle(); dc > 0.2 {
				t.Errorf("node %d duty cycle %.3f, want mostly asleep", c.sleeper, dc)
			}
		})
	}
}
