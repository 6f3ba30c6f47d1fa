package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/trace"
)

// TestObserversOnDynamicsRun: the tracer, the radio-observing sinks and
// the auditor all watch a run with crash dynamics and the failure
// detector. Two runs agree exactly, the observers never perturb the run
// (same digest as the audited bare run), the audit is clean, and the
// trace is chronological within its capacity. Not skipped under
// -short: the race job runs it.
func TestObserversOnDynamicsRun(t *testing.T) {
	const capacity = 64
	spec, err := LoadSpec(filepath.Join("../../testdata", "dynamics_crash.json"))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	bare.Audit = true
	observed := bare
	observed.TraceCapacity = capacity
	observed.Sinks = []SinkChoice{{Name: "timeseries"}, {Name: "jsonl"}}
	run := func(t *testing.T, sc Scenario) *Result {
		t.Helper()
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Audit.Total != 0 {
			t.Fatalf("%d invariant violations, first: %s", res.Audit.Total, res.Audit.Violations[0])
		}
		return res
	}

	a, b := run(t, observed), run(t, observed)
	t.Run("deterministic", func(t *testing.T) {
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Error("traces differ between identical runs")
		}
		if !reflect.DeepEqual(a.Records, b.Records) {
			t.Error("records differ between identical runs")
		}
		if a.Audit.Digest != b.Audit.Digest {
			t.Errorf("digests differ: %s vs %s", a.Audit.Digest, b.Audit.Digest)
		}
	})
	t.Run("non-perturbing", func(t *testing.T) {
		if d := run(t, bare).Audit.Digest; d != a.Audit.Digest {
			t.Errorf("observers changed the digest: %s vs bare %s", a.Audit.Digest, d)
		}
	})
	t.Run("output", func(t *testing.T) {
		if len(a.Trace) == 0 || len(a.Trace) > capacity {
			t.Errorf("trace holds %d events, want 1..%d", len(a.Trace), capacity)
		}
		for i := 1; i < len(a.Trace); i++ {
			if a.Trace[i].At < a.Trace[i-1].At {
				t.Fatalf("trace not chronological at %d: %v after %v", i, a.Trace[i].At, a.Trace[i-1].At)
			}
		}
		if len(a.Records) != 2 {
			t.Errorf("got %d records, want timeseries and jsonl", len(a.Records))
		}
	})
}

// allObservers attaches every observer a run can carry: the tracer,
// each radio-observing and per-node sink, and the auditor.
func allObservers(sc Scenario, capacity int) Scenario {
	sc.Audit = true
	sc.TraceCapacity = capacity
	sc.Sinks = []SinkChoice{{Name: "timeseries"}, {Name: "energy"}, {Name: "jsonl"}}
	return sc
}

// TestCollectIdempotent: a second Collect on the same Sim, with every
// observer attached, returns the first call's metrics and sink records
// instead of feeding the node summaries to the sinks again.
func TestCollectIdempotent(t *testing.T) {
	s, err := BuildWith(nil, allObservers(smokeScenario(DTSSS, 3), 16))
	if err != nil {
		t.Fatal(err)
	}
	s.Simulate()
	first := s.Collect()
	if len(first.Records) != 3 {
		t.Fatalf("got %d records, want one per sink", len(first.Records))
	}
	want, err := json.Marshal(first.Records)
	if err != nil {
		t.Fatal(err)
	}
	duty, energy, events := first.DutyCycle, first.EnergyMean, first.Events

	again := s.Collect()
	got, err := json.Marshal(again.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("second Collect changed the sink records:\n%s\nwant\n%s", got, want)
	}
	if again.DutyCycle != duty || again.EnergyMean != energy || again.Events != events {
		t.Errorf("second Collect changed the metrics: duty %v energy %v events %d, want %v %v %d",
			again.DutyCycle, again.EnergyMean, again.Events, duty, energy, events)
	}
}

// TestObserversAllProtocols: every registered protocol runs with all
// observers attached, audits clean, and keeps the digest of its bare
// audited run, so no protocol stack reacts to being watched.
func TestObserversAllProtocols(t *testing.T) {
	const capacity = 64
	for _, p := range AllProtocols {
		t.Run(string(p), func(t *testing.T) {
			bare := smokeScenario(p, 42)
			bare.Audit = true
			want, err := Run(bare)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(allObservers(smokeScenario(p, 42), capacity))
			if err != nil {
				t.Fatal(err)
			}
			if got.Audit.Total != 0 {
				t.Fatalf("%d invariant violations, first: %s", got.Audit.Total, got.Audit.Violations[0])
			}
			if got.Audit.Digest != want.Audit.Digest {
				t.Errorf("observers changed the digest: %s vs bare %s", got.Audit.Digest, want.Audit.Digest)
			}
			if got.Events != want.Events {
				t.Errorf("observers changed the event count: %d vs bare %d", got.Events, want.Events)
			}
			if len(got.Trace) == 0 || len(got.Trace) > capacity {
				t.Errorf("trace holds %d events, want 1..%d", len(got.Trace), capacity)
			}
			if len(got.Records) != 3 {
				t.Errorf("got %d records, want one per sink", len(got.Records))
			}
		})
	}
}

// TestNoObserverGates: crash dynamics and the failure detector build
// and run with every observer attached, and what they do reaches the
// tracer. No feature is refused at build time.
func TestNoObserverGates(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*Scenario)
		detail string // must appear in some traced event's detail
	}{
		{"dynamics", func(sc *Scenario) {
			sc.Dynamics = []Dynamic{{Kind: "crash", Params: dynamics.Params{
				At: 8 * time.Second, Duration: 8 * time.Second, Count: 2}}}
		}, "recovered"},
		{"failure-detector", func(sc *Scenario) {
			sc.FailureThreshold = 3
			sc.Dynamics = []Dynamic{{Kind: "crash", Params: dynamics.Params{
				At: 8 * time.Second, Count: 2}}}
		}, "declared dead"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := allObservers(smokeScenario(DTSSS, 1), 1<<16)
			tc.mut(&sc)
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("build or run refused: %v", err)
			}
			if res.Audit.Total != 0 {
				t.Fatalf("%d invariant violations, first: %s", res.Audit.Total, res.Audit.Violations[0])
			}
			failed := 0
			found := false
			for _, e := range res.Trace {
				if e.Kind == trace.NodeFailed {
					failed++
				}
				found = found || strings.Contains(e.Detail, tc.detail)
			}
			if failed == 0 {
				t.Error("no node-failed event traced")
			}
			if !found {
				t.Errorf("no traced event mentions %q", tc.detail)
			}
		})
	}
}

// TestSleepIntervalsWithEveryObserver pins the Fig. 8 sleep log, which a
// run's radio listener keeps next to the tracer, the auditor and the
// radio sinks. Each ESSAT protocol's Fig. 8 run (instantaneous radio
// transitions) records the same intervals, in the same order, alone and
// with every observer attached, and matches a pinned count, sum and
// order-sensitive hash. (Why the listener sits before Safe Sleep is
// pinned in core's TestSleepLogSubscribedBeforeSafeSleep.)
func TestSleepIntervalsWithEveryObserver(t *testing.T) {
	pins := []struct {
		p    Protocol
		n    int
		sum  time.Duration
		hash uint64
	}{
		{DTSSS, 14648, 1292438700892, 0xf5c5f34923e778c3},
		{STSSS, 15224, 1300329154404, 0x0784447dc7cc9a01},
		{NTSSS, 10048, 1253714010978, 0x37f8c80253f22ee1},
	}
	o := Options{Duration: 20 * time.Second, Seeds: 1}.normalized()
	fig8 := catalogSweep(t, "fig8")
	for _, pin := range pins {
		t.Run(string(pin.p), func(t *testing.T) {
			bare := fig8.scenario(o, protocols(pin.p)[0], fig8.xs[0], 1)
			for _, sc := range []Scenario{bare, allObservers(bare, 64)} {
				name := "bare"
				if sc.Audit {
					name = "observed"
				}
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				var sum time.Duration
				h := fnv.New64a()
				var buf [8]byte
				for _, d := range res.SleepIntervals {
					sum += d
					binary.LittleEndian.PutUint64(buf[:], uint64(d))
					h.Write(buf[:])
				}
				if n := len(res.SleepIntervals); n != pin.n || sum != pin.sum || h.Sum64() != pin.hash {
					t.Errorf("%s: %d intervals, sum %d, hash %016x; want %d, %d, %016x",
						name, n, int64(sum), h.Sum64(), pin.n, int64(pin.sum), pin.hash)
				}
				if sc.Audit && res.Audit.Total != 0 {
					t.Errorf("%s: %d invariant violations, first: %s", name, res.Audit.Total, res.Audit.Violations[0])
				}
			}
		})
	}
}

// TestRadioTapOnlyWithObservers: a member radio gets its one observer
// listener exactly when some observer reads radio transitions, and a
// bare run subscribes none.
func TestRadioTapOnlyWithObservers(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want bool
	}{
		{"bare", func(*Scenario) {}, false},
		{"energy-sink", func(sc *Scenario) { sc.Sinks = []SinkChoice{{Name: "energy"}} }, false},
		{"tracer", func(sc *Scenario) { sc.TraceCapacity = 8 }, true},
		{"auditor", func(sc *Scenario) { sc.Audit = true }, true},
		{"timeseries-sink", func(sc *Scenario) { sc.Sinks = []SinkChoice{{Name: "timeseries"}} }, true},
		{"sleep-log", func(sc *Scenario) { sc.RecordSleepIntervals = true }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := smokeScenario(DTSSS, 1)
			tc.mut(&sc)
			s, err := BuildWith(nil, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.taps != nil; got != tc.want {
				t.Fatalf("taps installed = %v, want %v", got, tc.want)
			}
			for _, id := range s.Tree.Members() {
				if got := s.taps != nil && s.taps[id] != nil; got != tc.want {
					t.Fatalf("member %d tapped = %v, want %v", id, got, tc.want)
				}
			}
		})
	}
}
