package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/query"
)

// checkBase is the valid spec every check case edits: 20 nodes, 5 s,
// the workload's queries 0, 1 and 2.
func checkBase() Spec {
	return Spec{Protocol: "DTS-SS", Nodes: 20, Duration: Dur(5 * time.Second),
		Workload: &WorkloadSpec{BaseRate: 1, PerClass: 1}}
}

// TestBuildRejectsMalformedConfigs: one case per error site of the
// scenario's check. Each case's values come back from BuildWith as an
// error, never a panic, so a malformed scenario can never take down a
// campaign worker or a server. Where JSON can express the values,
// Spec.Scenario() refuses the spec with the very error BuildWith gives
// the scenario: both come from the one check.
func TestBuildRejectsMalformedConfigs(t *testing.T) {
	base := checkBase()
	valid, err := base.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec func(*Spec) // nil: JSON cannot express the values
		sc   func(*Scenario)
		want string
	}{
		{"unknown protocol",
			func(s *Spec) { s.Protocol = "XYZ" },
			func(sc *Scenario) { sc.Protocol = "XYZ" },
			`unknown protocol "XYZ"`},
		{"unknown propagation model",
			func(s *Spec) { s.Channel = &ChannelSpec{Model: "fog"} },
			func(sc *Scenario) { sc.Propagation = "fog" },
			`unknown propagation model "fog"`},
		{"unknown propagation param",
			func(s *Spec) {
				s.Channel = &ChannelSpec{Model: "shadowing", Params: map[string]float64{"sigmaa": 4}}
			},
			func(sc *Scenario) {
				sc.Propagation, sc.PropagationParams = "shadowing", map[string]float64{"sigmaa": 4}
			},
			"sigmaa"},
		{"unknown radio profile",
			func(s *Spec) { s.Radio = &RadioSpec{Profile: "cc9999"} },
			func(sc *Scenario) { sc.RadioProfile = "cc9999" },
			`unknown radio profile "cc9999"`},
		{"unknown sink",
			func(s *Spec) { s.Results = &ResultsSpec{Sinks: []SinkSpec{{Name: "nope"}}} },
			func(sc *Scenario) { sc.Sinks = []SinkChoice{{Name: "nope"}} },
			`unknown metric sink "nope"`},
		{"unknown sink param",
			func(s *Spec) {
				s.Results = &ResultsSpec{Sinks: []SinkSpec{{Name: "timeseries", Params: map[string]float64{"bucket": 5}}}}
			},
			func(sc *Scenario) {
				sc.Sinks = []SinkChoice{{Name: "timeseries", Params: map[string]float64{"bucket": 5}}}
			},
			"bucket"},
		{"zero duration", nil,
			func(sc *Scenario) { sc.Duration = 0 },
			"non-positive duration 0s"},
		{"measure_from at duration",
			func(s *Spec) { s.MeasureFrom = durPtr(5 * time.Second) },
			func(sc *Scenario) { sc.MeasureFrom = 5 * time.Second },
			"MeasureFrom 5s outside [0, Duration 5s)"},
		{"measure_from past duration",
			func(s *Spec) { s.MeasureFrom = durPtr(10 * time.Second) },
			func(sc *Scenario) { sc.MeasureFrom = 10 * time.Second },
			"MeasureFrom 10s outside [0, Duration 5s)"},
		{"negative measure_from",
			func(s *Spec) { s.MeasureFrom = durPtr(-time.Second) },
			func(sc *Scenario) { sc.MeasureFrom = -time.Second },
			"MeasureFrom -1s outside"},
		{"no queries",
			func(s *Spec) { s.Workload = nil },
			func(sc *Scenario) { sc.Queries = nil },
			"no queries configured"},
		{"zero query period",
			func(s *Spec) { s.Queries = []QueryJSON{{ID: 100}} },
			func(sc *Scenario) { sc.Queries = append(sc.Queries, query.Spec{ID: 100}) },
			"query 100: period must be positive"},
		{"negative query phase",
			func(s *Spec) { s.Queries = []QueryJSON{{ID: 100, Period: Dur(time.Second), Phase: Dur(-time.Second)}} },
			func(sc *Scenario) {
				sc.Queries = append(sc.Queries, query.Spec{ID: 100, Period: time.Second, Phase: -time.Second})
			},
			"query 100: negative phase"},
		{"duplicate query ID",
			func(s *Spec) { s.Queries = []QueryJSON{{ID: 1, Period: Dur(time.Second)}} },
			func(sc *Scenario) { sc.Queries = append(sc.Queries, query.Spec{ID: 1, Period: time.Second}) },
			"duplicate query ID 1"},
		{"negative failure threshold",
			func(s *Spec) { s.FailureThreshold = -1 },
			func(sc *Scenario) { sc.FailureThreshold = -1 },
			"negative FailureThreshold -1"},
		{"bad dynamics row",
			func(s *Spec) { s.Dynamics = []DynamicsSpec{{Kind: "linkloss", Duration: Dur(time.Second), Peak: 1.5}} },
			func(sc *Scenario) {
				sc.Dynamics = []Dynamic{{Kind: "linkloss"}}
				sc.Dynamics[0].Duration, sc.Dynamics[0].Peak = time.Second, 1.5
			},
			"linkloss: peak"},
		{"dissemination ID equal to a query ID",
			func(s *Spec) { s.Dissemination = []FlowSpec{{ID: 2, Period: Dur(time.Second)}} },
			func(sc *Scenario) { sc.Dissemination = []core.DisseminationSpec{{ID: 2, Period: time.Second}} },
			"dissemination flow 2: ID already used"},
		{"peer ID equal to a query ID",
			func(s *Spec) { s.Peers = []FlowSpec{{ID: 0, Period: Dur(time.Second)}} },
			func(sc *Scenario) { sc.PeerFlows = []core.P2PSpec{{ID: 0, Src: -1, Dst: -1, Period: time.Second}} },
			"peer flow 0: ID already used"},
		{"duplicate flow ID",
			func(s *Spec) {
				s.Dissemination = []FlowSpec{{ID: -1, Period: Dur(time.Second)}}
				s.Peers = []FlowSpec{{ID: -1, Period: Dur(time.Second)}}
			},
			func(sc *Scenario) {
				sc.Dissemination = []core.DisseminationSpec{{ID: -1, Period: time.Second}}
				sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1, Period: time.Second}}
			},
			"dissemination flow -1: ID already used"},
		{"zero flow period",
			func(s *Spec) { s.Peers = []FlowSpec{{ID: -1}} },
			func(sc *Scenario) { sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: -1}} },
			"peer flow -1: period must be positive"},
		{"negative flow phase",
			func(s *Spec) {
				s.Dissemination = []FlowSpec{{ID: -1, Period: Dur(time.Second), Phase: Dur(-time.Second)}}
			},
			func(sc *Scenario) {
				sc.Dissemination = []core.DisseminationSpec{{ID: -1, Period: time.Second, Phase: -time.Second}}
			},
			"dissemination flow -1: negative phase"},
		{"peer pinned outside the deployment",
			func(s *Spec) {
				s.Peers = []FlowSpec{{ID: -1, Src: intPtr(5000), Dst: intPtr(1), Period: Dur(time.Second)}}
			},
			func(sc *Scenario) { sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: 5000, Dst: 1, Period: time.Second}} },
			"peer flow -1: endpoints 5000→1 are not two nodes of the deployment's 20"},
		{"peer pinned to one node at both ends",
			func(s *Spec) {
				s.Peers = []FlowSpec{{ID: -1, Src: intPtr(3), Dst: intPtr(3), Period: Dur(time.Second)}}
			},
			func(sc *Scenario) { sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: 3, Dst: 3, Period: time.Second}} },
			"peer flow -1: endpoints 3→3 are not two nodes of the deployment's 20"},
		{"half-pinned peer outside the deployment",
			func(s *Spec) { s.Peers = []FlowSpec{{ID: -1, Dst: intPtr(20), Period: Dur(time.Second)}} },
			func(sc *Scenario) { sc.PeerFlows = []core.P2PSpec{{ID: -1, Src: -1, Dst: 20, Period: time.Second}} },
			"peer flow -1: endpoints -1→20 are not two nodes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := valid
			sc.Queries = append([]query.Spec(nil), valid.Queries...)
			c.sc(&sc)
			_, buildErr := BuildWith(nil, sc)
			if buildErr == nil || !strings.Contains(buildErr.Error(), c.want) {
				t.Fatalf("BuildWith error %v, want one naming %q", buildErr, c.want)
			}
			if c.spec == nil {
				return
			}
			spec := checkBase()
			c.spec(&spec)
			if _, err := spec.Scenario(); err == nil || err.Error() != buildErr.Error() {
				t.Fatalf("Scenario() error %v, want BuildWith's %q", err, buildErr)
			}
		})
	}
}

// TestBuildOnlyRefusals: the two refusals that need the built tree pass
// the scenario's check, so Spec.Scenario() accepts them, and the build
// refuses them. A 1 m tree holds only the root.
func TestBuildOnlyRefusals(t *testing.T) {
	cases := []struct {
		name string
		peer FlowSpec
		want string
	}{
		{"drawn endpoint on a one-member tree", FlowSpec{ID: -1, Period: Dur(time.Second)},
			"peer flow -1 needs a random endpoint, but the tree has 1 member(s)"},
		{"no tree path between pinned nodes", FlowSpec{ID: -1, Src: intPtr(1), Dst: intPtr(2), Period: Dur(time.Second)},
			"no path for peer flow -1 (1→2)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := checkBase()
			spec.TreeMaxDist = 1
			spec.Peers = []FlowSpec{c.peer}
			sc, err := spec.Scenario()
			if err != nil {
				t.Fatalf("Scenario() refused a tree-only error: %v", err)
			}
			if _, err := BuildWith(nil, sc); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("BuildWith error %v, want one naming %q", err, c.want)
			}
		})
	}
}
