package experiment

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSpecScenarioMatchesImperativeBuild(t *testing.T) {
	spec := &Spec{
		Protocol: "DTS-SS",
		Seed:     5,
		Duration: Dur(25 * time.Second),
		Workload: &WorkloadSpec{BaseRate: 1.0, PerClass: 1, PhaseMax: Dur(5 * time.Second), Seed: 85},
	}
	got, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}

	want := DefaultScenario(DTSSS, 5)
	want.Duration = 25 * time.Second
	rng := rand.New(rand.NewSource(85))
	want.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spec compiled to\n%+v\nwant\n%+v", got, want)
	}
}

func TestSpecDefaults(t *testing.T) {
	spec := &Spec{Protocol: "STS-SS", Workload: &WorkloadSpec{BaseRate: 2, PerClass: 1}}
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 1 {
		t.Errorf("default seed = %d, want 1", sc.Seed)
	}
	if sc.Duration != 200*time.Second || sc.MeasureFrom != 10*time.Second {
		t.Errorf("defaults not the paper's: duration=%v measureFrom=%v", sc.Duration, sc.MeasureFrom)
	}
	if sc.SSBreakEven != -1 {
		t.Errorf("omitted break_even should keep the radio default (-1), got %v", sc.SSBreakEven)
	}
	if sc.Topology.NumNodes != 80 || sc.Topology.AreaSide != 500 {
		t.Errorf("topology defaults wrong: %+v", sc.Topology)
	}
	// Workload seed derives from the scenario seed like the figures'
	// rate workload (seed × 7919).
	rng := rand.New(rand.NewSource(1 * 7919))
	want := QueryClasses(rng, 2, 1, 10*time.Second)
	if !reflect.DeepEqual(sc.Queries, want) {
		t.Errorf("derived workload differs from the seed*7919 convention")
	}
	// Short runs clamp MeasureFrom.
	spec.Duration = Dur(5 * time.Second)
	sc, err = spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.MeasureFrom != time.Second {
		t.Errorf("MeasureFrom not clamped to Duration/5: %v", sc.MeasureFrom)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	be := Dur(2500 * time.Microsecond)
	mf := Dur(5 * time.Second)
	victim := 12
	src := 3
	orig := &Spec{
		Protocol:         "DTS-SS",
		Seed:             9,
		Nodes:            40,
		Area:             400,
		Topology:         "clusters",
		TopologyParams:   map[string]float64{"clusters": 3, "spread": 60},
		Duration:         Dur(30 * time.Second),
		MeasureFrom:      &mf,
		Workload:         &WorkloadSpec{BaseRate: 1, PerClass: 2, PhaseMax: Dur(4 * time.Second)},
		Queries:          []QueryJSON{{ID: 100, Period: Dur(time.Second), Class: 1}},
		BreakEven:        &be,
		Loss:             0.05,
		FailureThreshold: 3,
		Dynamics: []DynamicsSpec{{Kind: "fail", At: Dur(10 * time.Second), Node: &victim},
			{Kind: "fail", At: Dur(15 * time.Second)}, {Kind: "stop", At: Dur(20 * time.Second), Query: 2}},
		Peers: []FlowSpec{{ID: -1, Src: &src, Period: Dur(time.Second)}},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\njson: %s", err, data)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip changed the spec:\n%+v\nvs\n%+v", orig, back)
	}
}

func TestSpecDurationForms(t *testing.T) {
	s, err := ParseSpec([]byte(`{"protocol":"DTS-SS","duration":"1m30s","workload":{"base_rate":1,"per_class":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration.D() != 90*time.Second {
		t.Errorf("string duration = %v, want 1m30s", s.Duration.D())
	}
	// Bare numbers are nanoseconds, time.Duration's own JSON form.
	s, err = ParseSpec([]byte(`{"protocol":"DTS-SS","duration":1000000000,"workload":{"base_rate":1,"per_class":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Duration.D() != time.Second {
		t.Errorf("numeric duration = %v, want 1s", s.Duration.D())
	}
}

func TestSpecErrors(t *testing.T) {
	// want, when set, must appear in the error: it names the field.
	cases := []struct {
		name string
		json string
		want string
	}{
		{"unknown field", `{"protocol":"DTS-SS","workloads":{}}`, ""},
		{"bad duration", `{"protocol":"DTS-SS","duration":"ten seconds"}`, ""},
		{"removed parallelism block", `{"protocol":"DTS-SS","parallelism":{"shards":2}}`, "parallelism"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
	wl := &WorkloadSpec{BaseRate: 1, PerClass: 1}
	compile := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown protocol", Spec{Protocol: "XYZ", Workload: wl}, ""},
		{"unknown topology", Spec{Protocol: "DTS-SS", Topology: "moebius", Workload: wl}, ""},
		{"unknown topology param", Spec{Protocol: "DTS-SS", Topology: "grid",
			TopologyParams: map[string]float64{"jiter": 5}, Workload: wl}, "jiter"},
		{"params for the uniform default", Spec{Protocol: "DTS-SS",
			TopologyParams: map[string]float64{"jitter": 5}, Workload: wl}, "jitter"},
		{"unknown channel param", Spec{Protocol: "DTS-SS", Workload: wl,
			Channel: &ChannelSpec{Model: "shadowing", Params: map[string]float64{"sigmaa": 4}}}, "sigmaa"},
		{"no queries", Spec{Protocol: "DTS-SS"}, ""},
		{"measure_from past duration", Spec{Protocol: "DTS-SS", Duration: Dur(30 * time.Second),
			MeasureFrom: durPtr(60 * time.Second), Workload: wl}, ""},
		{"negative measure_from", Spec{Protocol: "DTS-SS",
			MeasureFrom: durPtr(-5 * time.Second), Workload: wl}, ""},
		{"bad workload", Spec{Protocol: "DTS-SS", Workload: &WorkloadSpec{BaseRate: -1, PerClass: 1}}, ""},
		{"bad query period", Spec{Protocol: "DTS-SS", Queries: []QueryJSON{{ID: 1}}}, ""},
		{"negative trace_capacity", Spec{Protocol: "DTS-SS", Workload: wl, TraceCapacity: -1}, "trace_capacity"},
		{"negative battery_j", Spec{Protocol: "DTS-SS", Workload: wl, BatteryJ: -0.5}, "battery_j"},
		{"negative setup_slot", Spec{Protocol: "DTS-SS", Workload: wl, SetupSlot: Dur(-time.Second)}, "setup_slot"},
		{"negative failure start", Spec{Protocol: "DTS-SS", Workload: wl,
			Dynamics: []DynamicsSpec{{Kind: "fail", At: Dur(-time.Second)}}}, "fail: negative start"},
		{"negative query stop start", Spec{Protocol: "DTS-SS", Workload: wl,
			Dynamics: []DynamicsSpec{{Kind: "stop", At: Dur(-time.Second), Query: 1}}}, "stop: negative start"},
		{"negative failure node", Spec{Protocol: "DTS-SS", Workload: wl,
			Dynamics: []DynamicsSpec{{Kind: "fail", At: Dur(time.Second), Node: intPtr(-5)}}}, "fail: negative node -5"},
		{"negative duration", Spec{Protocol: "DTS-SS", Workload: wl, Duration: Dur(-5 * time.Second)}, "duration"},
		{"empty results block", Spec{Protocol: "DTS-SS", Workload: wl, Results: &ResultsSpec{}}, "at least one sink"},
		{"repeated results sink", Spec{Protocol: "DTS-SS", Workload: wl,
			Results: &ResultsSpec{Sinks: []SinkSpec{{Name: "energy"}, {Name: "energy"}}}}, `duplicate results sink "energy"`},
		{"negative dynamics node", Spec{Protocol: "DTS-SS", Workload: wl,
			Dynamics: []DynamicsSpec{{Kind: "crash", At: Dur(time.Second), Node: intPtr(-5)}}}, "crash: negative node -5"},
		{"negative peer src", Spec{Protocol: "DTS-SS", Workload: wl,
			Peers: []FlowSpec{{ID: -1, Src: intPtr(-4), Period: Dur(time.Second)}}}, "peer flow -1: a pinned src or dst"},
		{"negative peer dst", Spec{Protocol: "DTS-SS", Workload: wl,
			Peers: []FlowSpec{{ID: -1, Src: intPtr(2), Dst: intPtr(-4), Period: Dur(time.Second)}}}, "peer flow -1: a pinned src or dst"},
	}
	for _, c := range compile {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Scenario()
			if err == nil {
				t.Fatalf("Scenario() accepted %+v", c.spec)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
}

func durPtr(d time.Duration) *Duration {
	v := Dur(d)
	return &v
}

func intPtr(i int) *int { return &i }

func TestSpecRunEndToEnd(t *testing.T) {
	res, err := RunSpec(&Spec{
		Protocol: "NTS-SS",
		Nodes:    30,
		Area:     350,
		Topology: "corridor",
		Duration: Dur(10 * time.Second),
		Workload: &WorkloadSpec{BaseRate: 1, PerClass: 1, PhaseMax: Dur(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DutyCycle <= 0 || res.Latency.N == 0 {
		t.Fatalf("spec run produced implausible result: %+v", res)
	}
}

// TestSpecChecksDynamicsValues: Scenario() runs each dynamics kind's own
// value checks, so a bad value fails the compile rather than the build.
// One case per check, plus one valid entry per kind.
func TestSpecChecksDynamicsValues(t *testing.T) {
	wl := &WorkloadSpec{BaseRate: 1, PerClass: 1}
	cases := []struct {
		name string
		d    DynamicsSpec
		want string // fragment of the error; empty for a valid entry
	}{
		{"unknown kind", DynamicsSpec{Kind: "meteor"}, `unknown injector kind "meteor"`},
		{"fail valid", DynamicsSpec{Kind: "fail", At: Dur(time.Second), Node: intPtr(3)}, ""},
		{"fail negative start", DynamicsSpec{Kind: "fail", At: Dur(-time.Second)}, "fail: negative start"},
		{"fail negative node", DynamicsSpec{Kind: "fail", Node: intPtr(-1)}, "fail: negative node -1"},
		{"stop valid", DynamicsSpec{Kind: "stop", At: Dur(time.Second), Query: 2}, ""},
		{"stop negative start", DynamicsSpec{Kind: "stop", At: Dur(-time.Second), Query: 2}, "stop: negative start"},
		{"crash negative node", DynamicsSpec{Kind: "crash", Node: intPtr(-5)}, "crash: negative node -5"},
		{"crash valid", DynamicsSpec{Kind: "crash", At: Dur(time.Second)}, ""},
		{"crash negative start", DynamicsSpec{Kind: "crash", At: Dur(-time.Second)}, "crash: negative start"},
		{"crash negative outage", DynamicsSpec{Kind: "crash", Duration: Dur(-time.Second)}, "crash: negative outage"},
		{"crash negative count", DynamicsSpec{Kind: "crash", Count: -1}, "crash: negative victim count"},
		{"linkloss valid", DynamicsSpec{Kind: "linkloss", Duration: Dur(time.Second), Peak: 0.5}, ""},
		{"linkloss negative start", DynamicsSpec{Kind: "linkloss", At: Dur(-time.Second), Duration: Dur(time.Second), Peak: 0.5},
			"linkloss: negative start"},
		{"linkloss no episode", DynamicsSpec{Kind: "linkloss", Peak: 0.5}, "linkloss: episode duration"},
		{"linkloss peak above 1", DynamicsSpec{Kind: "linkloss", Duration: Dur(time.Second), Peak: 1.5}, "linkloss: peak"},
		{"linkloss negative steps", DynamicsSpec{Kind: "linkloss", Duration: Dur(time.Second), Peak: 0.5, Steps: -2},
			"linkloss: negative step count"},
		{"burst valid", DynamicsSpec{Kind: "burst", Duration: Dur(2 * time.Second), Period: Dur(time.Second)}, ""},
		{"burst negative start", DynamicsSpec{Kind: "burst", At: Dur(-time.Second), Duration: Dur(2 * time.Second), Period: Dur(time.Second)},
			"burst: negative start"},
		{"burst no length", DynamicsSpec{Kind: "burst", Period: Dur(time.Second)}, "burst: burst length"},
		{"burst no period", DynamicsSpec{Kind: "burst", Duration: Dur(2 * time.Second)}, "burst: report period"},
		{"burst negative queries", DynamicsSpec{Kind: "burst", Duration: Dur(2 * time.Second), Period: Dur(time.Second), Queries: -3},
			"burst: negative query count"},
		{"burst too many queries", DynamicsSpec{Kind: "burst", Duration: Dur(2 * time.Second), Period: Dur(time.Second), Queries: 5000},
			"burst: at most 4096 queries"},
		{"burst period past length", DynamicsSpec{Kind: "burst", Duration: Dur(time.Second), Period: Dur(2 * time.Second)},
			"burst: period 2s exceeds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec := Spec{Protocol: "DTS-SS", Workload: wl, Dynamics: []DynamicsSpec{c.d}}
			_, err := spec.Scenario()
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("Scenario() rejected a valid entry: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("Scenario() accepted %+v", c.d)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Errorf("error %q does not name %q", err, c.want)
			}
		})
	}
}
