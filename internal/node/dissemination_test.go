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

// TestDisseminationEndToEnd runs a downstream flow over the full stack on
// a 4-hop chain with Safe Sleep active and no upward queries: every node
// must receive every command, through radios that sleep between slots.
func TestDisseminationEndToEnd(t *testing.T) {
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(5, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.DefaultConfig())

	spec := core.DisseminationSpec{
		ID:           -1,
		Period:       time.Second,
		Phase:        200 * time.Millisecond,
		HopAllowance: 30 * time.Millisecond,
	}

	received := make(map[NodeID][]int)
	nodes := make(map[NodeID]*Node)
	for _, id := range tree.Members() {
		id := id
		n := New(eng, id, tree, ch, radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: 500 * time.Microsecond}, mac.DefaultConfig())
		ss := core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{
			BreakEven: -1, WakeAhead: -1, MACBusy: n.MAC,
		})
		n.InstallSleep(ss)
		n.InstallAgent(core.NewDTS(n, ss), nil, query.DefaultConfig(), 1)
		n.InstallDisseminator(func(c *core.Command) {
			received[id] = append(received[id], c.Interval)
		})
		if err := n.Diss.Register(spec); err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
	}
	eng.Run(5100 * time.Millisecond)

	// Commands k=0..4 released at 0.2s..4.2s; every node (root included,
	// via its own deliver) sees all 5.
	for _, id := range tree.Members() {
		if got := len(received[id]); got != 5 {
			t.Errorf("node %d received %d commands, want 5 (%v)", id, got, received[id])
		}
	}
	// Deep nodes must actually sleep between slots.
	leaf := nodes[4]
	if dc := leaf.Radio.DutyCycle(); dc > 0.2 {
		t.Errorf("leaf duty cycle %.3f during dissemination-only workload, want sleeping", dc)
	}
	// Per-level pipeline: node 4 (level 4) receives command k at roughly
	// release + 4·30ms; its stats should show no late arrivals.
	if late := leaf.Diss.Stats().Late; late != 0 {
		t.Errorf("leaf saw %d late commands on an uncontended chain", late)
	}
}
