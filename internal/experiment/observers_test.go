package experiment

import (
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
			sc.QueryCfg.FailureThreshold = 3
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
