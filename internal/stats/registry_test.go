package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
)

func TestSinkNamesRankOrder(t *testing.T) {
	want := []string{SinkTimeseries, SinkEnergy, SinkJSONL}
	if got := SinkNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SinkNames() = %v, want %v", got, want)
	}
}

func TestNewSinkUnknownNameListsRegistry(t *testing.T) {
	_, err := NewSink("flamegraph", SinkConfig{Duration: time.Second})
	if err == nil {
		t.Fatal("unknown sink accepted")
	}
	for _, name := range SinkNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered sink %q", err, name)
		}
	}
}

func TestSinkParamValidation(t *testing.T) {
	cases := []struct {
		name   string
		sink   string
		params map[string]float64
		ok     bool
	}{
		{"jsonl-rejects-params", SinkJSONL, map[string]float64{"x": 1}, false},
		{"timeseries-default", SinkTimeseries, nil, true},
		{"timeseries-valid-bucket", SinkTimeseries, map[string]float64{"bucket_ms": 250}, true},
		{"timeseries-zero-bucket", SinkTimeseries, map[string]float64{"bucket_ms": 0}, false},
		{"timeseries-negative-bucket", SinkTimeseries, map[string]float64{"bucket_ms": -5}, false},
		{"timeseries-nan-bucket", SinkTimeseries, map[string]float64{"bucket_ms": math.NaN()}, false},
		{"timeseries-unknown-key", SinkTimeseries, map[string]float64{"bucketms": 100}, false},
		{"energy-valid", SinkEnergy, map[string]float64{"bin_j": 0.5, "bins": 10}, true},
		{"energy-fractional-bins", SinkEnergy, map[string]float64{"bins": 2.5}, false},
		{"energy-zero-bins", SinkEnergy, map[string]float64{"bins": 0}, false},
		{"energy-huge-bins", SinkEnergy, map[string]float64{"bins": 1 << 30}, false},
		{"energy-negative-bin-width", SinkEnergy, map[string]float64{"bin_j": -1}, false},
	}
	for _, c := range cases {
		_, err := NewSink(c.sink, SinkConfig{Duration: time.Second, Params: c.params})
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid params accepted", c.name)
		}
	}
}

// feedScript drives a fixed observation sequence through a fanout: two
// report/interval pairs, a sleep/wake radio cycle on node 1, and three
// node summaries.
func feedScript(f *Fanout) {
	f.ReportArrived(query.ID(3), 0, 12*time.Millisecond, 7)
	f.IntervalClosed(query.ID(3), 0, 15*time.Millisecond, 9)
	f.RadioChanged(1, radio.Idle, radio.Off, 400*time.Millisecond)
	f.RadioChanged(1, radio.Off, radio.Idle, 1200*time.Millisecond)
	f.ReportArrived(query.ID(5), 1, 8*time.Millisecond, 4)
	f.IntervalClosed(query.ID(5), 1, 9*time.Millisecond, 4)
	f.NodeDone(NodeSummary{Node: 0, Rank: 2, Duty: 0.9, EnergyJ: 1.5})
	f.NodeDone(NodeSummary{Node: 1, Rank: 1, Duty: 0.4, EnergyJ: 0.6})
	f.NodeDone(NodeSummary{Node: 2, Rank: 0, Duty: 0.1, EnergyJ: 30})
}

func buildFanout(t *testing.T) *Fanout {
	t.Helper()
	cfg := SinkConfig{Duration: 2 * time.Second, MeasureFrom: 0, Nodes: 3}
	var obs []Sink
	for _, name := range []string{SinkTimeseries, SinkEnergy, SinkJSONL} {
		s, err := NewSink(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, s)
	}
	return NewFanout(NewRootSink(nil, 0, cfg.Duration), obs...)
}

// Fanout must emit records in configuration order, stamp identity
// fields, and be byte-deterministic across identical runs.
func TestFanoutDeterministicRecords(t *testing.T) {
	meta := RunMeta{Protocol: "DTS-SS", Seed: 42, Duration: 2 * time.Second, TreeSize: 3}
	marshal := func() []byte {
		f := buildFanout(t)
		if !f.WantsRadio() {
			t.Fatal("timeseries sink should register as a RadioObserver")
		}
		feedScript(f)
		recs := f.Records(meta)
		if len(recs) != 3 {
			t.Fatalf("got %d records, want 3", len(recs))
		}
		order := []string{SinkTimeseries, SinkEnergy, SinkJSONL}
		for i, r := range recs {
			if r.Sink != order[i] {
				t.Fatalf("record %d from sink %q, want %q (configuration order)", i, r.Sink, order[i])
			}
			if r.Schema != SchemaVersion || r.Protocol != "DTS-SS" || r.Seed != 42 {
				t.Fatalf("record %d identity = %+v", i, r)
			}
			if err := ValidateRecord(&r); err != nil {
				t.Fatalf("record %d invalid: %v", i, err)
			}
		}
		b, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := marshal(), marshal()
	if string(a) != string(b) {
		t.Fatalf("identical runs marshaled differently:\n%s\n%s", a, b)
	}
}

func TestJSONLSinkCapturesStream(t *testing.T) {
	s, err := NewSink(SinkJSONL, SinkConfig{Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(NewRootSink(nil, 0, 2*time.Second), s)
	feedScript(f)
	rec := s.Finish(RunMeta{})
	if rec.Kind != KindEvents {
		t.Fatalf("kind = %q", rec.Kind)
	}
	// Radio transitions are not events — only report/interval/node hooks
	// are captured: 2 reports + 2 closes + 3 summaries.
	if len(rec.Events) != 7 {
		t.Fatalf("got %d events, want 7", len(rec.Events))
	}
	if rec.Scalars["events"] != 7 {
		t.Fatalf("events scalar = %v, want 7", rec.Scalars["events"])
	}
	first := rec.Events[0]
	if first.Kind != EventReport || first.Query != 3 || first.Interval != 0 ||
		first.LatencyNs != (12*time.Millisecond).Nanoseconds() || first.Coverage != 7 {
		t.Fatalf("first event = %+v", first)
	}
	last := rec.Events[6]
	if last.Kind != EventNode || last.Node != 2 || last.Rank != 0 || last.EnergyJ != 30 {
		t.Fatalf("last event = %+v", last)
	}
}

func TestEnergySinkHistogram(t *testing.T) {
	s, err := NewSink(SinkEnergy, SinkConfig{
		Duration: 10 * time.Second, MeasureFrom: 2 * time.Second,
		Params: map[string]float64{"bin_j": 1, "bins": 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{0.5, 1.5, 1.6, 3.2, 10} { // bins 0,1,1,3 + overflow
		s.NodeDone(NodeSummary{EnergyJ: e})
	}
	rec := s.Finish(RunMeta{})
	if rec.Kind != KindHistogram {
		t.Fatalf("kind = %q", rec.Kind)
	}
	h := rec.Histogram
	if !reflect.DeepEqual(h.Counts, []uint64{1, 2, 0, 1}) || h.Overflow != 1 || h.Total != 5 {
		t.Fatalf("histogram = %+v", h)
	}
	// Finish leaves identity fields to the fanout; stamp them so the
	// payload can be schema-checked.
	rec.Schema, rec.Sink = SchemaVersion, SinkEnergy
	if err := ValidateRecord(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Scalars["nodes"] != 5 || rec.Scalars["max_j"] != 10 {
		t.Fatalf("scalars = %v", rec.Scalars)
	}
	// 20 kJ battery at 10 J over an 8 s measurement window.
	wantDays := 20_000.0 / (10.0 / 8.0) / 86_400
	if math.Abs(rec.Scalars["lifetime_days"]-wantDays) > 1e-9 {
		t.Fatalf("lifetime_days = %v, want %v", rec.Scalars["lifetime_days"], wantDays)
	}
}

// A node awake for [0,400ms) and [1200ms,2s) with 1 s buckets over a
// 2 s run has awake fractions 0.4 and 0.8.
func TestTimeseriesBucketing(t *testing.T) {
	f := func() (*Fanout, Sink) {
		s, err := NewSink(SinkTimeseries, SinkConfig{Duration: 2 * time.Second, Nodes: 3})
		if err != nil {
			t.Fatal(err)
		}
		return NewFanout(NewRootSink(nil, 0, 2*time.Second), s), s
	}
	fan, s := f()
	feedScript(fan)
	rec := s.Finish(RunMeta{})
	if rec.Kind != KindTimeseries || len(rec.Series) != 3 {
		t.Fatalf("record = %+v", rec)
	}
	sleeper := rec.Series[1]
	if sleeper.Node != 1 || sleeper.Rank != 1 || sleeper.BucketMs != 1000 {
		t.Fatalf("series[1] = %+v", sleeper)
	}
	want := []float64{0.4, 0.8}
	if len(sleeper.Values) != 2 || math.Abs(sleeper.Values[0]-want[0]) > 1e-9 ||
		math.Abs(sleeper.Values[1]-want[1]) > 1e-9 {
		t.Fatalf("node 1 awake fractions = %v, want %v", sleeper.Values, want)
	}
	// Nodes with no transitions are awake throughout.
	for _, i := range []int{0, 2} {
		for _, v := range rec.Series[i].Values {
			if v != 1.0 {
				t.Fatalf("series[%d] values = %v, want all 1.0", i, rec.Series[i].Values)
			}
		}
	}
}

// A partial final bucket normalizes by its real width, not the bucket
// width, so an always-awake node still reads 1.0 there.
func TestTimeseriesPartialFinalBucket(t *testing.T) {
	s, err := NewSink(SinkTimeseries, SinkConfig{
		Duration: 2500 * time.Millisecond,
		Nodes:    5,
		Params:   map[string]float64{"bucket_ms": 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.NodeDone(NodeSummary{Node: 4, Rank: 1})
	rec := s.Finish(RunMeta{})
	vals := rec.Series[0].Values
	if len(vals) != 3 {
		t.Fatalf("values = %v, want 3 buckets", vals)
	}
	for i, v := range vals {
		if math.Abs(v-1.0) > 1e-9 {
			t.Fatalf("bucket %d = %v, want 1.0", i, v)
		}
	}
}

func TestValidateRecord(t *testing.T) {
	valid := func() *Record {
		return &Record{
			Schema: SchemaVersion, Sink: SinkEnergy, Kind: KindHistogram,
			Histogram: &HistogramRecord{Unit: "J", BinWidth: 1, Counts: []uint64{2, 1}, Overflow: 1, Total: 4},
		}
	}
	if err := ValidateRecord(valid()); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Record)
	}{
		{"bad-schema", func(r *Record) { r.Schema = 99 }},
		{"empty-sink", func(r *Record) { r.Sink = "" }},
		{"unknown-kind", func(r *Record) { r.Kind = "scatter" }},
		{"count-mismatch", func(r *Record) { r.Histogram.Total = 7 }},
		{"foreign-payload", func(r *Record) { r.Events = []Event{{Kind: EventReport}} }},
		{"missing-payload", func(r *Record) { r.Histogram = nil }},
	}
	for _, c := range cases {
		r := valid()
		c.mut(r)
		if err := ValidateRecord(r); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	bad := &Record{Schema: SchemaVersion, Sink: SinkTimeseries, Kind: KindTimeseries,
		Series: []Series{{BucketMs: 0, Values: []float64{1}}}}
	if err := ValidateRecord(bad); err == nil {
		t.Error("zero bucket_ms series accepted")
	}
	badEv := &Record{Schema: SchemaVersion, Sink: SinkJSONL, Kind: KindEvents,
		Events: []Event{{Kind: "teleport"}}}
	if err := ValidateRecord(badEv); err == nil {
		t.Error("unknown event kind accepted")
	}
}
