package experiment

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/essat/essat/internal/stats"
)

// sinkScenario is a fast NTS-SS run with every optional sink attached.
func sinkScenario(seed int64) Scenario {
	sc := smokeScenario(NTSSS, seed)
	sc.Duration = 10 * time.Second
	sc.MeasureFrom = 2 * time.Second
	sc.Sinks = []SinkChoice{
		{Name: stats.SinkTimeseries, Params: map[string]float64{"bucket_ms": 500}},
		{Name: stats.SinkEnergy},
		{Name: stats.SinkJSONL},
	}
	return sc
}

func TestDefaultRunHasNoRecords(t *testing.T) {
	sc := smokeScenario(NTSSS, 42)
	sc.Duration = 5 * time.Second
	sc.MeasureFrom = time.Second
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("default run produced %d records, want 0", len(res.Records))
	}
}

func TestResultsSpecErrors(t *testing.T) {
	base := func() Spec {
		return Spec{Protocol: "NTS-SS", Workload: &WorkloadSpec{BaseRate: 1, PerClass: 1}}
	}
	cases := []struct {
		name string
		res  *ResultsSpec
	}{
		{"empty-sinks", &ResultsSpec{}},
		{"unknown-sink", &ResultsSpec{Sinks: []SinkSpec{{Name: "flamegraph"}}}},
		// The root recorder is attached to every run and emits no
		// record, so it is not a sink a spec can name.
		{"root-sink", &ResultsSpec{Sinks: []SinkSpec{{Name: "root"}}}},
		{"duplicate-sink", &ResultsSpec{Sinks: []SinkSpec{{Name: "energy"}, {Name: "energy"}}}},
		{"bad-params", &ResultsSpec{Sinks: []SinkSpec{{Name: "timeseries", Params: map[string]float64{"bucket_ms": -1}}}}},
		{"unknown-param", &ResultsSpec{Sinks: []SinkSpec{{Name: "jsonl", Params: map[string]float64{"x": 1}}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := base()
			s.Results = c.res
			if _, err := s.Scenario(); err == nil {
				t.Errorf("Scenario() accepted %+v", c.res)
			}
		})
	}
	// The happy path compiles into Scenario.Sinks in declaration order.
	s := base()
	s.Results = &ResultsSpec{Sinks: []SinkSpec{{Name: "energy"}, {Name: "jsonl"}}}
	sc, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Sinks) != 2 || sc.Sinks[0].Name != "energy" || sc.Sinks[1].Name != "jsonl" {
		t.Fatalf("compiled sinks = %+v", sc.Sinks)
	}
}

// Sinks must be pure observers: attaching every registered sink may not
// perturb the simulation (same audit digest) or any legacy result field.
func TestSinkPurity(t *testing.T) {
	plain := smokeScenario(NTSSS, 42)
	plain.Duration = 10 * time.Second
	plain.MeasureFrom = 2 * time.Second
	plain.Audit = true
	sinked := sinkScenario(42)
	sinked.Audit = true

	resPlain, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	resSinked, err := Run(sinked)
	if err != nil {
		t.Fatal(err)
	}
	if resPlain.Audit.Digest != resSinked.Audit.Digest {
		t.Fatalf("sinks changed the trace digest: %s != %s",
			resSinked.Audit.Digest, resPlain.Audit.Digest)
	}
	if len(resSinked.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(resSinked.Records))
	}
	// Strip the records and the remaining Result must be byte-identical.
	resSinked.Records = nil
	a, err := json.Marshal(resPlain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resSinked)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("legacy result fields differ with sinks attached:\n%s\n%s", a, b)
	}
}

// Exporter output must not depend on how many runs share the process:
// the same scenario run alone and run alongside concurrent neighbors
// yields byte-identical marshaled records.
func TestRecordsWorkerCountInvariant(t *testing.T) {
	marshalRecords := func(res *Result) []byte {
		b, err := json.Marshal(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref, err := Run(sinkScenario(42))
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRecords(ref)
	for _, rec := range ref.Records {
		rec := rec
		if err := stats.ValidateRecord(&rec); err != nil {
			t.Fatalf("record from sink %q invalid: %v", rec.Sink, err)
		}
	}

	const workers = 4
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(sinkScenario(42))
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = marshalRecords(res)
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w, b := range got {
		if string(b) != string(want) {
			t.Fatalf("worker %d records differ from solo run", w)
		}
	}
}
