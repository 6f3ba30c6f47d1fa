package experiment

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// parallelScenario is the smoke setup with auditing on (the digest is
// the determinism witness) and the given shard count.
func parallelScenario(p Protocol, seed int64, shards int) Scenario {
	sc := smokeScenario(p, seed)
	sc.Audit = true
	sc.Shards = shards
	return sc
}

// TestShardCountInvariance pins the parallel engine's determinism
// contract: a 1-shard run is byte-identical to the sequential engine
// (same digest, same event count), and every shard count is
// deterministic run-to-run — the digest depends on (seed, K, lookahead)
// only, never on goroutine interleaving.
func TestShardCountInvariance(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{{0, 1}, {1, 1}, {4, 4}} {
		sm, err := Build(parallelScenario(DTSSS, 42, tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := sm.Shards(); got != tc.want {
			t.Errorf("Shards=%d: Sim.Shards() = %d, want %d", tc.shards, got, tc.want)
		}
		// Only a parallel build has a cross-shard lookahead.
		if la := sm.ShardLookahead(); (tc.want > 1) != (la > 0) {
			t.Errorf("Shards=%d: ShardLookahead() = %v", tc.shards, la)
		}
	}

	seq, err := Run(parallelScenario(DTSSS, 42, 0))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Audit == nil || seq.Audit.Digest == "" {
		t.Fatal("sequential run produced no audit digest")
	}

	one, err := Run(parallelScenario(DTSSS, 42, 1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Audit.Digest != seq.Audit.Digest {
		t.Errorf("shards=1 digest %s != sequential %s", one.Audit.Digest, seq.Audit.Digest)
	}
	if one.Events != seq.Events {
		t.Errorf("shards=1 events %d != sequential %d", one.Events, seq.Events)
	}

	for _, k := range []int{2, 3, 4} {
		k := k
		t.Run(string(rune('0'+k))+"shards", func(t *testing.T) {
			a, err := Run(parallelScenario(DTSSS, 42, k))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(parallelScenario(DTSSS, 42, k))
			if err != nil {
				t.Fatal(err)
			}
			if a.Audit.Digest != b.Audit.Digest {
				t.Errorf("shards=%d not deterministic: %s vs %s", k, a.Audit.Digest, b.Audit.Digest)
			}
			if a.Events != b.Events {
				t.Errorf("shards=%d event counts differ: %d vs %d", k, a.Events, b.Events)
			}
			// The sharded run must still be a working network, not just a
			// deterministic one: reports cross shard boundaries and reach
			// the root.
			if a.Latency.N == 0 {
				t.Error("no query latency samples reached the root")
			}
			if a.Coverage < float64(a.TreeSize)/2 {
				t.Errorf("coverage %.1f below half the tree (%d)", a.Coverage, a.TreeSize)
			}
			if a.DutyCycle <= 0 || a.DutyCycle > 1 {
				t.Errorf("duty cycle %v out of range", a.DutyCycle)
			}
			t.Logf("shards=%d: digest=%s events=%d coverage=%.1f/%d duty=%.1f%%",
				k, a.Audit.Digest, a.Events, a.Coverage, a.TreeSize, a.DutyCycle*100)
		})
	}
}

// TestParallelAllProtocols smokes every registered protocol under the
// sharded engine: the stacks were written single-threaded, and shard
// confinement is what keeps them correct here.
func TestParallelAllProtocols(t *testing.T) {
	for _, p := range AllProtocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := Run(parallelScenario(p, 42, 4))
			if err != nil {
				t.Fatal(err)
			}
			if res.Latency.N == 0 {
				t.Fatal("no query latency samples reached the root")
			}
		})
	}
}

// TestParallelLookaheadOverride: an explicit lookahead is honored and
// changes boundary timing (different digest than the derived default),
// while staying deterministic.
func TestParallelLookaheadOverride(t *testing.T) {
	sc := parallelScenario(DTSSS, 42, 4)
	sc.Lookahead = 2 * time.Millisecond
	sm, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Shards() != 4 || sm.ShardLookahead() != sc.Lookahead {
		t.Errorf("built %d shards with lookahead %v, want 4 with %v", sm.Shards(), sm.ShardLookahead(), sc.Lookahead)
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Audit.Digest != b.Audit.Digest {
		t.Errorf("override not deterministic: %s vs %s", a.Audit.Digest, b.Audit.Digest)
	}
	if a.Latency.N == 0 {
		t.Error("no query latency samples reached the root")
	}
}

// TestParallelGates: features whose state crosses shard boundaries must
// fail the build with a clear error, not race at runtime.
func TestParallelGates(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"dynamics", func(sc *Scenario) {
			sc.Dynamics = []Dynamic{{Kind: "crash"}}
		}, "dynamics"},
		{"failure-detector", func(sc *Scenario) { sc.QueryCfg.FailureThreshold = 3 }, "failure detector"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sc := parallelScenario(DTSSS, 42, 2)
			tc.mut(&sc)
			_, err := Run(sc)
			if err == nil {
				t.Fatalf("%s: expected a build error with shards > 1", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestParallelObservers: the tracer and the radio-observing sinks run
// per shard, so a sharded run with them attached stays deterministic,
// observes without perturbing (same digest as the bare run), and at one
// shard reproduces the sequential run's trace and records exactly. Not
// skipped under -short: the race job runs it.
func TestParallelObservers(t *testing.T) {
	const capacity = 64
	observed := func(shards int) Scenario {
		sc := parallelScenario(DTSSS, 42, shards)
		sc.TraceCapacity = capacity
		sc.Sinks = []SinkChoice{{Name: "timeseries"}, {Name: "jsonl"}}
		return sc
	}
	run := func(t *testing.T, sc Scenario) *Result {
		t.Helper()
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	a, b := run(t, observed(4)), run(t, observed(4))
	t.Run("deterministic", func(t *testing.T) {
		if !reflect.DeepEqual(a.Trace, b.Trace) {
			t.Error("shards=4 traces differ between identical runs")
		}
		if !reflect.DeepEqual(a.Records, b.Records) {
			t.Error("shards=4 records differ between identical runs")
		}
		if a.Audit.Digest != b.Audit.Digest {
			t.Errorf("shards=4 digests differ: %s vs %s", a.Audit.Digest, b.Audit.Digest)
		}
	})
	t.Run("non-perturbing", func(t *testing.T) {
		if bare := run(t, parallelScenario(DTSSS, 42, 4)); bare.Audit.Digest != a.Audit.Digest {
			t.Errorf("observers changed the shards=4 digest: %s vs bare %s", a.Audit.Digest, bare.Audit.Digest)
		}
	})
	t.Run("merged-output", func(t *testing.T) {
		if len(a.Trace) == 0 || len(a.Trace) > capacity {
			t.Errorf("trace holds %d events, want 1..%d", len(a.Trace), capacity)
		}
		for i := 1; i < len(a.Trace); i++ {
			if a.Trace[i].At < a.Trace[i-1].At {
				t.Fatalf("trace not chronological at %d: %v after %v", i, a.Trace[i].At, a.Trace[i-1].At)
			}
		}
		if len(a.Records) != 2 || len(a.Records[0].Series) != a.TreeSize {
			t.Errorf("got %d records, want timeseries (one series per member) and jsonl", len(a.Records))
		}
	})
	t.Run("one-shard-matches-sequential", func(t *testing.T) {
		seq, one := run(t, observed(0)), run(t, observed(1))
		if !reflect.DeepEqual(seq.Trace, one.Trace) {
			t.Error("shards=1 trace differs from the sequential run")
		}
		if !reflect.DeepEqual(seq.Records, one.Records) {
			t.Error("shards=1 records differ from the sequential run")
		}
	})
}

// TestParallelBudget: the event budget terminates a sharded run at
// barrier granularity with the standard error type.
func TestParallelBudget(t *testing.T) {
	sm, err := Build(parallelScenario(DTSSS, 42, 4))
	if err != nil {
		t.Fatal(err)
	}
	err = sm.SimulateContext(t.Context(), Budget{MaxEvents: 10_000})
	be, ok := err.(*BudgetExceededError)
	if !ok {
		t.Fatalf("expected *BudgetExceededError, got %v", err)
	}
	if be.Resource != "events" || be.Events < 10_000 {
		t.Errorf("unexpected budget report: %+v", be)
	}
}
