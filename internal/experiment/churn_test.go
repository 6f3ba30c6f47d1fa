package experiment

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/protocol"
)

// churnScenario is a small, fast deployment for dynamics-layer tests.
func churnScenario(p Protocol, seed int64) Scenario {
	sc := DefaultScenario(p, seed)
	sc.Topology.NumNodes = 40
	sc.Topology.AreaSide = 400
	sc.Duration = 30 * time.Second
	sc.MeasureFrom = 5 * time.Second
	sc.FailureThreshold = 3
	sc.Queries = QueryClasses(rand.New(rand.NewSource(seed*7919)), 1.0, 1, 5*time.Second)
	return sc
}

// TestDynamicsScenariosAuditCleanAllProtocols is the acceptance matrix:
// one scenario per injector kind, run under every registered protocol
// with the full invariant audit — exactly what `essat-sim -scenario
// testdata/dynamics_*.json -audit` does.
func TestDynamicsScenariosAuditCleanAllProtocols(t *testing.T) {
	files := []string{"dynamics_crash.json", "dynamics_linkloss.json", "dynamics_burst.json"}
	for _, f := range files {
		spec, err := LoadSpec(filepath.Join("../../testdata", f))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range protocol.All() {
			p := p
			t.Run(f+"/"+string(p), func(t *testing.T) {
				run := *spec
				run.Protocol = string(p)
				res, err := RunSpec(&run)
				if err != nil {
					t.Fatal(err)
				}
				if res.Audit == nil {
					t.Fatal("scenario file did not enable the audit")
				}
				if res.Audit.Total != 0 {
					t.Fatalf("%d invariant violations, first: %s", res.Audit.Total, res.Audit.Violations[0])
				}
				if res.Coverage <= 0 {
					t.Fatal("no coverage at all under dynamics")
				}
			})
		}
	}
}

// TestAuditorIsPure: a run with the auditor enabled must be
// byte-identical to the same run without it — the observer can watch
// but never act.
func TestAuditorIsPure(t *testing.T) {
	sc := churnScenario(DTSSS, 3)
	sc.Dynamics = []Dynamic{
		{Kind: dynamics.KindCrash, Params: dynamics.Params{At: 8 * time.Second, Duration: 8 * time.Second, Count: 2}},
		{Kind: dynamics.KindBurst, Params: dynamics.Params{At: 12 * time.Second, Duration: 6 * time.Second, Period: 250 * time.Millisecond}},
	}
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Audit = true
	audited, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if audited.Audit == nil || audited.Audit.Total != 0 {
		t.Fatalf("audited run not clean: %+v", audited.Audit)
	}
	if plain.Audit != nil {
		t.Fatal("unaudited run carries an audit summary")
	}
	audited.Audit = nil
	if !reflect.DeepEqual(plain, audited) {
		t.Fatalf("auditor changed the run:\nplain   %+v\naudited %+v", plain, audited)
	}
}

// TestCrashRecoveryRestoresReporting: with recovery, crashed nodes
// come back and the run ends with full membership reporting; the same
// crashes made permanent lose those sources for good.
func TestCrashRecoveryRestoresReporting(t *testing.T) {
	base := churnScenario(DTSSS, 5)
	base.Audit = true

	recovered := base
	recovered.Dynamics = []Dynamic{{Kind: dynamics.KindCrash,
		Params: dynamics.Params{At: 8 * time.Second, Duration: 5 * time.Second, Count: 3}}}
	permanent := base
	permanent.Dynamics = []Dynamic{{Kind: dynamics.KindCrash,
		Params: dynamics.Params{At: 8 * time.Second, Count: 3}}}

	rec, err := Run(recovered)
	if err != nil {
		t.Fatal(err)
	}
	perm, err := Run(permanent)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{rec, perm} {
		if r.Audit.Total != 0 {
			t.Fatalf("violations under churn: %v", r.Audit.Violations)
		}
	}
	if rec.Coverage <= perm.Coverage {
		t.Fatalf("recovery did not help coverage: recovered %.2f <= permanent %.2f",
			rec.Coverage, perm.Coverage)
	}
}

// TestBurstRaisesTraffic: the load-burst injector must visibly increase
// MAC traffic during the run, and the extra queries must not outlive
// the burst (the workload returns to baseline).
func TestBurstRaisesTraffic(t *testing.T) {
	base := churnScenario(DTSSS, 7)
	quiet, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	bursty := base
	bursty.Audit = true
	bursty.Dynamics = []Dynamic{{Kind: dynamics.KindBurst,
		Params: dynamics.Params{At: 10 * time.Second, Duration: 10 * time.Second, Period: 250 * time.Millisecond, Queries: 2}}}
	loud, err := Run(bursty)
	if err != nil {
		t.Fatal(err)
	}
	if loud.Audit.Total != 0 {
		t.Fatalf("violations under burst: %v", loud.Audit.Violations)
	}
	if loud.MACSent <= quiet.MACSent {
		t.Fatalf("burst did not raise traffic: %d <= %d", loud.MACSent, quiet.MACSent)
	}
}

// TestLinkLossRampDropsFrames: the ramp injects real per-link drops and
// clears them by the end of the episode.
func TestLinkLossRampDropsFrames(t *testing.T) {
	sc := churnScenario(DTSSS, 9)
	sc.Audit = true
	sc.Dynamics = []Dynamic{{Kind: dynamics.KindLinkLoss,
		Params: dynamics.Params{At: 8 * time.Second, Duration: 12 * time.Second, Peak: 0.5, Steps: 6}}}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Total != 0 {
		t.Fatalf("violations under link loss: %v", res.Audit.Violations)
	}
	if res.Channel.LinkDrops == 0 {
		t.Fatal("link-loss ramp dropped nothing")
	}
}

// TestDynamicsDeterminism: the same dynamics scenario runs to the same
// trace digest every time.
func TestDynamicsDeterminism(t *testing.T) {
	build := func() Scenario {
		sc := churnScenario(STSSS, 11)
		sc.Audit = true
		sc.Dynamics = []Dynamic{
			{Kind: dynamics.KindCrash, Params: dynamics.Params{At: 6 * time.Second, Duration: 6 * time.Second, Count: 2}},
			{Kind: dynamics.KindLinkLoss, Params: dynamics.Params{At: 10 * time.Second, Duration: 8 * time.Second, Peak: 0.3}},
			{Kind: dynamics.KindBurst, Params: dynamics.Params{At: 15 * time.Second, Duration: 8 * time.Second, Period: 500 * time.Millisecond}},
		}
		return sc
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if a.Audit.Digest != b.Audit.Digest {
		t.Fatalf("digests differ across identical runs: %s vs %s", a.Audit.Digest, b.Audit.Digest)
	}
}

// TestSpecDynamicsValidation: unknown kinds and bad parameters are
// rejected at spec-compile or build time.
func TestSpecDynamicsValidation(t *testing.T) {
	spec := &Spec{
		Protocol: "DTS-SS",
		Workload: &WorkloadSpec{BaseRate: 1, PerClass: 1},
		Dynamics: []DynamicsSpec{{Kind: "meteor"}},
	}
	if _, err := spec.Scenario(); err == nil {
		t.Fatal("unknown dynamics kind accepted")
	}
	sc := churnScenario(DTSSS, 1)
	sc.Dynamics = []Dynamic{{Kind: dynamics.KindLinkLoss, Params: dynamics.Params{At: time.Second}}}
	if _, err := BuildWith(nil, sc); err == nil {
		t.Fatal("invalid linkloss params accepted at build")
	}
}

// TestPermanentFailureWinsOverCrashRecovery: a configured (permanent)
// failure that strikes while its victim is dynamics-crashed must still
// kill the node for good — the later recovery event must not resurrect
// it.
func TestPermanentFailureWinsOverCrashRecovery(t *testing.T) {
	// Probe the deterministic topology once to pick a non-root member.
	probe, err := BuildWith(nil, churnScenario(DTSSS, 13))
	if err != nil {
		t.Fatal(err)
	}
	var victim int = -1
	for _, id := range probe.Tree.AppendMembers(nil) {
		if id != probe.Tree.Root() {
			victim = int(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no non-root member")
	}

	sc := churnScenario(DTSSS, 13)
	sc.Audit = true
	sc.Dynamics = []Dynamic{{Kind: dynamics.KindCrash,
		Params: dynamics.Params{At: 8 * time.Second, Duration: 8 * time.Second, Node: &victim}},
		failRow(10*time.Second, &victim)}
	s, err := BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Simulate()
	res := s.Collect()
	if res.Audit.Total != 0 {
		t.Fatalf("violations: %v", res.Audit.Violations)
	}
	v := node.NodeID(victim)
	if !s.Nodes[v].Killed() {
		t.Fatal("crash recovery resurrected a permanently failed node")
	}
	if !s.Channel.Disabled(v) {
		t.Fatal("failed node not permanently disabled on the channel")
	}
}

// TestQueryStopReachesCrashedNodes: a network-wide query stop that
// fires while a node is crashed must still deregister the query there,
// or the node resumes reporting a dead query after recovery.
func TestQueryStopReachesCrashedNodes(t *testing.T) {
	probe, err := BuildWith(nil, churnScenario(DTSSS, 17))
	if err != nil {
		t.Fatal(err)
	}
	var victim int = -1
	for _, id := range probe.Tree.AppendMembers(nil) {
		if id != probe.Tree.Root() {
			victim = int(id)
			break
		}
	}

	sc := churnScenario(DTSSS, 17)
	sc.Audit = true
	sc.Dynamics = []Dynamic{stopRow(12*time.Second, 0), {Kind: dynamics.KindCrash,
		Params: dynamics.Params{At: 8 * time.Second, Duration: 8 * time.Second, Node: &victim}}}
	s, err := BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	s.Simulate()
	res := s.Collect()
	if res.Audit.Total != 0 {
		t.Fatalf("violations: %v", res.Audit.Violations)
	}
	n := s.Nodes[node.NodeID(victim)]
	if n.Killed() {
		t.Fatal("victim did not recover")
	}
	for _, q := range n.Agent.Queries() {
		if q == 0 {
			t.Fatal("stopped query still registered on the recovered node")
		}
	}
}

// TestVictimOutsideDeploymentIgnored: a failure or a crash pinned to a
// node ID the deployment does not have does nothing, as a pin to a
// non-member does.
func TestVictimOutsideDeploymentIgnored(t *testing.T) {
	sc := churnScenario(DTSSS, 13)
	outside := sc.Topology.NumNodes + 5
	sc.Dynamics = []Dynamic{{Kind: dynamics.KindCrash,
		Params: dynamics.Params{At: 4 * time.Second, Duration: 2 * time.Second, Node: &outside}},
		failRow(5*time.Second, &outside)}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
}

// TestFailVictimPrefersInnerFromEngineRng: a random failure's victim is
// a non-root, non-leaf member while the tree has one, drawn from the
// engine's rng: the same build picks the same victims, and a draw taken
// from the engine first moves them.
func TestFailVictimPrefersInnerFromEngineRng(t *testing.T) {
	picks := func(burn bool) []node.NodeID {
		s, err := BuildWith(nil, churnScenario(DTSSS, 13))
		if err != nil {
			t.Fatal(err)
		}
		if burn {
			s.Eng.Rand().Int63()
		}
		h := &dynHost{Sim: s}
		var out []node.NodeID
		for i := 0; i < 20; i++ {
			v := h.Victim()
			if v == s.Tree.Root() || !s.Tree.Alive(v) || s.Tree.IsLeaf(v) {
				t.Fatalf("victim %d is the root, not a live member, or a leaf", v)
			}
			out = append(out, v)
		}
		return out
	}
	first := picks(false)
	if again := picks(false); !reflect.DeepEqual(first, again) {
		t.Fatalf("same build picked %v, then %v", first, again)
	}
	if burnt := picks(true); reflect.DeepEqual(first, burnt) {
		t.Fatalf("victims %v ignore the engine's stream", first)
	}
}
