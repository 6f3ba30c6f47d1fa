package experiment

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/essat/essat/internal/radio"
)

// modelScenario is a small audited scenario under the given propagation
// model and energy profile.
func modelScenario(p Protocol, channel string, chParams map[string]float64, profile string) Scenario {
	sc := DefaultScenario(p, 11)
	sc.Duration = 12 * time.Second
	sc.MeasureFrom = 2 * time.Second
	sc.Topology.NumNodes = 40
	sc.Topology.AreaSide = 400
	sc.Propagation = channel
	sc.PropagationParams = chParams
	sc.RadioProfile = profile
	sc.Audit = true
	rng := rand.New(rand.NewSource(99))
	sc.Queries = QueryClasses(rng, 1.0, 1, 3*time.Second)
	return sc
}

// TestChannelRadioMatrix runs every protocol under both gray-zone
// propagation models on a non-default energy profile, twice each, and
// checks same-seed determinism plus a clean invariant audit: lossy
// links and different hardware must break neither physics nor protocol
// rules anywhere in the stack.
func TestChannelRadioMatrix(t *testing.T) {
	models := []struct {
		channel string
		params  map[string]float64
		profile string
	}{
		{"shadowing", map[string]float64{"sigma": 6}, "cc2420"},
		{"dual-disc", map[string]float64{"inner": 0.6, "outer": 1.3}, "cc1000"},
	}
	for _, p := range AllProtocols {
		p := p
		for _, m := range models {
			m := m
			t.Run(string(p)+"/"+m.channel, func(t *testing.T) {
				t.Parallel()
				r1, err := Run(modelScenario(p, m.channel, m.params, m.profile))
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Run(modelScenario(p, m.channel, m.params, m.profile))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1, r2) {
					t.Fatalf("same seed produced different results:\n%+v\nvs\n%+v", r1, r2)
				}
				if r1.Audit == nil || r1.Audit.Total != 0 {
					t.Fatalf("invariant violations under %s/%s: %+v", m.channel, m.profile, r1.Audit)
				}
				if r1.Channel.FadeDrops == 0 {
					t.Errorf("gray-zone model %s never dropped a delivery", m.channel)
				}
				if r1.DutyCycle <= 0 || r1.DutyCycle > 1 {
					t.Errorf("duty cycle %v out of (0,1]", r1.DutyCycle)
				}
			})
		}
	}
}

// TestDiscModelNeverFades pins the fast path: under the default model
// the propagation verdict must not run at all, so FadeDrops stays zero
// and no extra rng draws can perturb the trace.
func TestDiscModelNeverFades(t *testing.T) {
	res, err := Run(modelScenario(DTSSS, "", nil, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Channel.FadeDrops != 0 {
		t.Errorf("disc model recorded %d fade drops", res.Channel.FadeDrops)
	}
}

// TestBFSTreeAvoidsGrayZoneLinks pins the idealized tree builder's
// gray-zone behavior: even though the candidate graph reaches out to
// the model's MaxRange, a min-hop tree must not ride the longest,
// weakest links — every parent edge stays within the nominal range.
func TestBFSTreeAvoidsGrayZoneLinks(t *testing.T) {
	sc := modelScenario(DTSSS, "shadowing", map[string]float64{"sigma": 6}, "")
	sc.BFSTree = true
	s, err := BuildWith(nil, sc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo.NeighborRange() <= s.Topo.Range() {
		t.Fatalf("candidate radius %g not widened beyond nominal %g", s.Topo.NeighborRange(), s.Topo.Range())
	}
	for _, id := range s.Tree.AppendMembers(nil) {
		if id == s.Tree.Root() {
			continue
		}
		p := s.Tree.Parent(id)
		if !s.Topo.Position(id).InRange(s.Topo.Position(p), s.Topo.Range()) {
			t.Errorf("tree edge %d→%d longer than the nominal range", id, p)
		}
	}
}

// TestBuildRejectsBadModels surfaces registry and parameter errors as
// Build failures rather than panics.
func TestBuildRejectsBadModels(t *testing.T) {
	sc := modelScenario(DTSSS, "warp-drive", nil, "")
	if _, err := Run(sc); err == nil {
		t.Error("unknown propagation model did not fail Build")
	}
	sc = modelScenario(DTSSS, "shadowing", map[string]float64{"sigma": -2}, "")
	if _, err := Run(sc); err == nil {
		t.Error("bad shadowing sigma did not fail Build")
	}
	sc = modelScenario(DTSSS, "", nil, "tr1001")
	if _, err := Run(sc); err == nil {
		t.Error("unknown radio profile did not fail Build")
	}
	sc = modelScenario(DTSSS, "", nil, "")
	sc.LossRate = 1.5
	if _, err := Run(sc); err == nil {
		t.Error("out-of-range loss rate did not fail Build")
	}
}

// TestProfileDrivesBreakEven checks that the resolved energy profile
// reaches Safe Sleep: with the radio-intrinsic setting (SSBreakEven<0)
// the cc2420's much shorter derived tBE must let nodes sleep through
// gaps the paper radio would idle through, cutting duty cycle.
func TestProfileDrivesBreakEven(t *testing.T) {
	base := func(profile string) Scenario {
		sc := modelScenario(DTSSS, "", nil, profile)
		sc.Audit = false
		return sc
	}
	paper, err := Run(base(""))
	if err != nil {
		t.Fatal(err)
	}
	cc2420, err := Run(base("cc2420"))
	if err != nil {
		t.Fatal(err)
	}
	if cc2420.DutyCycle >= paper.DutyCycle {
		t.Errorf("cc2420 duty %v not below paper duty %v despite tBE %v vs %v",
			cc2420.DutyCycle, paper.DutyCycle,
			mustProfile(t, radio.CC2420).BreakEven(), mustProfile(t, radio.Paper).BreakEven())
	}
}

func mustProfile(t *testing.T, name string) radio.EnergyProfile {
	t.Helper()
	p, ok := radio.LookupProfile(name)
	if !ok {
		t.Fatalf("profile %q not registered", name)
	}
	return p
}

// TestSpecChannelRadioBlocks exercises the declarative path: the JSON
// blocks compile onto the scenario, and bad names or knobs fail the
// compile with an error instead of crashing the run.
func TestSpecChannelRadioBlocks(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"protocol": "DTS-SS",
		"duration": "10s",
		"workload": {"base_rate": 1, "per_class": 1},
		"channel": {"model": "shadowing", "params": {"sigma": 5}},
		"radio": {"profile": "cc2420"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Propagation != "shadowing" || sc.PropagationParams["sigma"] != 5 {
		t.Errorf("channel block not compiled: %q %v", sc.Propagation, sc.PropagationParams)
	}
	if sc.RadioProfile != "cc2420" {
		t.Errorf("radio block not compiled: %q", sc.RadioProfile)
	}

	bad := []string{
		`{"protocol": "DTS-SS", "workload": {"base_rate": 1, "per_class": 1}, "channel": {"model": "nope"}}`,
		`{"protocol": "DTS-SS", "workload": {"base_rate": 1, "per_class": 1}, "channel": {"model": "shadowing", "params": {"sigma": -1}}}`,
		`{"protocol": "DTS-SS", "workload": {"base_rate": 1, "per_class": 1}, "channel": {"model": "disc", "params": {"huh": 1}}}`,
		`{"protocol": "DTS-SS", "workload": {"base_rate": 1, "per_class": 1}, "radio": {"profile": "nope"}}`,
	}
	for _, b := range bad {
		spec, err := ParseSpec([]byte(b))
		if err != nil {
			t.Fatalf("parse %s: %v", b, err)
		}
		if _, err := spec.Scenario(); err == nil {
			t.Errorf("spec compiled despite bad model/profile: %s", b)
		}
	}
}
