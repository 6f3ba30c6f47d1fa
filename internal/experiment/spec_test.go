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
		Failures:         []FailureSpec{{At: Dur(10 * time.Second), Node: &victim}, {At: Dur(15 * time.Second)}},
		QueryStops:       []QueryStopSpec{{At: Dur(20 * time.Second), Query: 2}},
		Peers:            []FlowSpec{{ID: -1, Src: &src, Period: Dur(time.Second)}},
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
