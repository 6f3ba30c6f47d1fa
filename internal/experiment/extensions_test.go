package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/topology"
)

func extScenario(seed int64) Scenario {
	sc := DefaultScenario(DTSSS, seed)
	sc.Topology = topology.Config{NumNodes: 40, AreaSide: 400, Range: 125}
	sc.Duration = 30 * time.Second
	sc.MeasureFrom = 5 * time.Second
	rng := rand.New(rand.NewSource(seed * 31))
	sc.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)
	return sc
}

func TestDisseminationThroughScenario(t *testing.T) {
	sc := extScenario(1)
	sc.Dissemination = []core.DisseminationSpec{{
		ID:     -1,
		Period: 2 * time.Second,
		Phase:  6 * time.Second,
	}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.DisseminationDelivery < 0.95 {
		t.Fatalf("dissemination delivery = %.3f, want ≥ 0.95", res.DisseminationDelivery)
	}
	if res.DisseminationLatency <= 0 || res.DisseminationLatency > time.Second {
		t.Fatalf("dissemination latency = %v, implausible", res.DisseminationLatency)
	}
}

func TestDisseminationIDCollisionRejected(t *testing.T) {
	sc := extScenario(2)
	sc.Dissemination = []core.DisseminationSpec{{
		ID:     sc.Queries[0].ID, // collides
		Period: time.Second,
	}}
	if _, err := Run(sc); err == nil {
		t.Fatal("ID collision between query and dissemination accepted")
	}
	// Flows share one Safe Sleep ID space at each node, so a peer flow
	// may not reuse a dissemination flow's ID either.
	sc.Dissemination[0].ID = -1
	sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1, Period: time.Second}}
	if _, err := Run(sc); err == nil {
		t.Fatal("ID collision between dissemination and peer flow accepted")
	}
}

func TestPeerFlowsThroughScenario(t *testing.T) {
	sc := extScenario(3)
	for i := 0; i < 3; i++ {
		sc.PeerFlows = append(sc.PeerFlows, core.P2PSpec{
			ID:     query.ID(-(i + 1)),
			Src:    -1,
			Dst:    -1,
			Period: time.Second,
			Phase:  6 * time.Second,
		})
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.P2PDelivery < 0.85 {
		t.Fatalf("p2p delivery = %.3f, want ≥ 0.85", res.P2PDelivery)
	}
	if res.P2PLatency <= 0 || res.P2PLatency > time.Second {
		t.Fatalf("p2p latency = %v, implausible", res.P2PLatency)
	}
}

func TestPeerFlowRandomEndpointsAreDistinctMembers(t *testing.T) {
	sc := extScenario(4)
	sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1, Period: time.Second, Phase: 6 * time.Second}}
	sm, err := BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	fl := sm.Scenario.PeerFlows[0]
	if fl.Src < 0 || fl.Dst < 0 || fl.Src == fl.Dst {
		t.Fatalf("random endpoints not resolved: %d→%d", fl.Src, fl.Dst)
	}
}

// TestPeerFlowHalfPinnedKeepsItsPin: a flow that pins one endpoint
// keeps it, and only the other is drawn, distinct from the pin.
func TestPeerFlowHalfPinnedKeepsItsPin(t *testing.T) {
	sc := extScenario(4)
	sm, err := BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	pin := sm.members[len(sm.members)-1]
	for _, fl := range []core.P2PSpec{{ID: -1, Src: pin, Dst: -1}, {ID: -1, Src: -1, Dst: pin}} {
		fl.Period, fl.Phase = time.Second, 6*time.Second
		sc.PeerFlows = []core.P2PSpec{fl}
		sm, err := BuildWith(nil, sc)
		if err != nil {
			t.Fatal(err)
		}
		got := sm.Scenario.PeerFlows[0]
		pinned, drawn := got.Src, got.Dst
		if fl.Src < 0 {
			pinned, drawn = got.Dst, got.Src
		}
		if pinned != pin || drawn < 0 || drawn == pin {
			t.Errorf("flow %d→%d resolved to %d→%d, want the pin %d kept and a distinct member drawn",
				fl.Src, fl.Dst, got.Src, got.Dst, pin)
		}
	}
}

// TestPeerFlowDrawNeedsTwoMembers: a flow whose endpoint must be drawn
// on a tree of the root alone is a build error, not an endless draw.
func TestPeerFlowDrawNeedsTwoMembers(t *testing.T) {
	sc := extScenario(4)
	sc.TreeMaxDist = 1 // no node but the root is this close to the root
	sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1, Period: time.Second, Phase: 6 * time.Second}}
	if _, err := BuildWith(nil, sc); err == nil {
		t.Fatal("a peer flow with drawn endpoints built on a one-member tree")
	}
}

func TestExtensionsCoexistWithFailures(t *testing.T) {
	sc := extScenario(5)
	sc.FailureThreshold = 3
	sc.Dynamics = []Dynamic{failRow(12*time.Second, nil)}
	sc.Dissemination = []core.DisseminationSpec{{ID: -1, Period: 2 * time.Second, Phase: 6 * time.Second}}
	sc.PeerFlows = []core.P2PSpec{{ID: -2, Src: -1, Dst: -1, Period: time.Second, Phase: 6 * time.Second}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The run completes and queries still flow; extension flows may lose
	// messages if the victim was on their path, which is fine.
	if res.Latency.N == 0 {
		t.Fatal("no query results with extensions + failure")
	}
}

// TestRunLeavesScenarioReusable: a run must not write resolved random
// peer-flow endpoints or a random failure victim back into the caller's
// Scenario. If it did, a second Run of the same value would skip those
// rng draws and diverge.
func TestRunLeavesScenarioReusable(t *testing.T) {
	sc := smokeScenario(DTSSS, 5)
	sc.Audit = true
	sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1, Period: time.Second, Phase: 6 * time.Second}}
	sc.Dynamics = []Dynamic{failRow(8*time.Second, nil)}
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Audit.Digest != second.Audit.Digest || first.Events != second.Events {
		t.Errorf("rerun diverged: digest %s/%d events, then %s/%d",
			first.Audit.Digest, first.Events, second.Audit.Digest, second.Events)
	}
	if fl := sc.PeerFlows[0]; fl.Src != -1 || fl.Dst != -1 {
		t.Errorf("run wrote endpoints %d→%d into the caller's scenario", fl.Src, fl.Dst)
	}
	if v := sc.Dynamics[0].Node; v != nil {
		t.Errorf("run wrote failure victim %d into the caller's scenario", *v)
	}
}

// TestPeerFlowOutsideDeploymentRefused: a peer flow pinned to a node ID
// the deployment does not have is refused by the scenario's check,
// before anything is built.
func TestPeerFlowOutsideDeploymentRefused(t *testing.T) {
	sc := extScenario(5)
	sc.PeerFlows = []core.P2PSpec{{ID: -2, Src: query.NodeID(sc.Topology.NumNodes + 4960), Dst: 1,
		Period: time.Second, Phase: 6 * time.Second}}
	_, err := Run(sc)
	if err == nil || !strings.Contains(err.Error(), "peer flow -2: endpoints 5000→1 are not two nodes of the deployment's 40") {
		t.Fatalf("Run() = %v, want the outside-the-deployment error", err)
	}
}
