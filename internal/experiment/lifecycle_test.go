package experiment

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/protocol"
)

// panicProto wires a normal NTS-SS stack and then schedules a panic
// mid-run — the shape of a protocol bug that must never take down a
// process hosting many runs.
func panicProto(ctx *protocol.BuildContext) {
	nts, _ := protocol.Lookup(NTSSS)
	nts(ctx)
	ctx.Eng.After(2*time.Second, func() { panic("injected protocol bug") })
}

const panicProtoName protocol.Protocol = "panic-mid-run"

func TestMain(m *testing.M) {
	protocol.RegisterTestDouble(panicProtoName, panicProto)
	os.Exit(m.Run())
}

// lifecycleScenario is a small, fast run for the lifecycle tests.
func lifecycleScenario(p Protocol, seed int64) Scenario {
	sc := DefaultScenario(p, seed)
	sc.Topology.NumNodes = 40
	sc.Topology.AreaSide = 350
	sc.Duration = 10 * time.Second
	sc.MeasureFrom = 2 * time.Second
	sc.Queries = QueryClasses(rand.New(rand.NewSource(seed*7919)), 1.0, 1, 3*time.Second)
	return sc
}

func TestPanicContainment(t *testing.T) {
	sc := lifecycleScenario(panicProtoName, 5)
	res, err := RunContextWith(context.Background(), nil, sc, Budget{})
	if res != nil {
		t.Fatalf("panicking run returned a result")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Protocol != panicProtoName || pe.Seed != 5 {
		t.Errorf("PanicError repro info = (%s, %d), want (%s, 5)", pe.Protocol, pe.Seed, panicProtoName)
	}
	if pe.Value != "injected protocol bug" {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panicProto") {
		t.Errorf("PanicError.Stack does not point at the panic site")
	}

	// The process — and the package — must be fully usable afterwards.
	if _, err := Run(lifecycleScenario(DTSSS, 5)); err != nil {
		t.Fatalf("run after contained panic failed: %v", err)
	}
}

func TestRunContainsPanics(t *testing.T) {
	// The compat entry points delegate to RunContextWith and therefore
	// contain panics too.
	var pe *PanicError
	if _, err := Run(lifecycleScenario(panicProtoName, 2)); !errors.As(err, &pe) {
		t.Fatalf("Run: err = %v, want *PanicError", err)
	}
	spec := &Spec{Protocol: string(panicProtoName), Seed: 2, Duration: Dur(10 * time.Second),
		Nodes: 40, Area: 350, Workload: &WorkloadSpec{BaseRate: 1, PerClass: 1}}
	pe = nil
	if _, err := RunSpec(spec); !errors.As(err, &pe) {
		t.Fatalf("RunSpec: err = %v, want *PanicError", err)
	} else if len(pe.SpecJSON) == 0 || !strings.Contains(string(pe.SpecJSON), string(panicProtoName)) {
		t.Errorf("RunSpec's PanicError does not carry the repro spec: %q", pe.SpecJSON)
	}
}

func TestBudgetMaxEvents(t *testing.T) {
	sc := lifecycleScenario(DTSSS, 1)
	res, err := RunContextWith(context.Background(), nil, sc, Budget{MaxEvents: 1000})
	if res != nil {
		t.Fatalf("budget-terminated run returned a result")
	}
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetExceededError", err, err)
	}
	if be.Resource != "events" || be.Events != 1000 {
		t.Errorf("BudgetExceededError = {Resource: %q, Events: %d}, want {events, 1000}", be.Resource, be.Events)
	}
}

func TestBudgetWallClock(t *testing.T) {
	sc := lifecycleScenario(DTSSS, 1)
	_, err := RunContextWith(context.Background(), nil, sc, Budget{WallClock: time.Nanosecond})
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetExceededError", err, err)
	}
	if be.Resource != "wall-clock" {
		t.Errorf("Resource = %q, want wall-clock", be.Resource)
	}
}

func TestCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := lifecycleScenario(DTSSS, 1)
	if _, err := RunContextWith(ctx, nil, sc, Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	// A deadline that can only fire mid-run terminates with the
	// context's own error.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := RunContextWith(ctx2, nil, lifecycleScenario(DTSSS, 2), Budget{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline ctx: err = %v, want context.DeadlineExceeded", err)
	}

	// The engine is single-goroutine: cancellation mid-run must leave
	// nothing behind. Allow slack for runtime/test goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if i > 50 {
			t.Fatalf("goroutines leaked by canceled runs: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPanicDiscardsArena: a contained panic drops the arena's engine by
// itself, so a clean run on the same arena matches a fresh-arena run.
func TestPanicDiscardsArena(t *testing.T) {
	sc := lifecycleScenario(DTSSS, 9)
	sc.Audit = true
	ref, err := RunContextWith(context.Background(), NewArenaWithCache(nil), sc, Budget{})
	if err != nil {
		t.Fatal(err)
	}

	a := NewArenaWithCache(nil)
	var pe *PanicError
	if _, err := RunContextWith(context.Background(), a, lifecycleScenario(panicProtoName, 9), Budget{}); !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if a.eng != nil {
		t.Fatal("arena kept the engine of a panicked run")
	}
	res, err := RunContextWith(context.Background(), a, sc, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Digest != ref.Audit.Digest {
		t.Fatalf("digest after a panic on the arena %s != fresh-arena %s", res.Audit.Digest, ref.Audit.Digest)
	}
}

// TestCanceledThenRerunDigest verifies a terminated run leaves no state
// behind that could perturb a later run: the rerun's audit digest
// matches a run that never shared a process with a cancellation.
func TestCanceledThenRerunDigest(t *testing.T) {
	sc := lifecycleScenario(DTSSS, 9)
	sc.Audit = true

	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Audit.Total != 0 {
		t.Fatalf("reference run has %d invariant violations", ref.Audit.Total)
	}

	if _, err := RunContextWith(context.Background(), nil, sc, Budget{MaxEvents: 5000}); err == nil {
		t.Fatal("budget run unexpectedly completed")
	}

	rerun, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Audit.Digest != ref.Audit.Digest {
		t.Fatalf("digest after canceled run %s != reference %s", rerun.Audit.Digest, ref.Audit.Digest)
	}
}

func TestQueryClassesInvalidArgsYieldError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		rate     float64
		perClass int
		phaseMax time.Duration
	}{{0, 1, time.Second}, {-1, 1, time.Second}, {1, 0, time.Second}, {1, 1, 0}} {
		if got := QueryClasses(rng, tc.rate, tc.perClass, tc.phaseMax); got != nil {
			t.Errorf("QueryClasses(%g, %d, %v) = %d specs, want none", tc.rate, tc.perClass, tc.phaseMax, len(got))
		}
	}
	// And the empty workload surfaces as a Build error, not a crash.
	sc := DefaultScenario(DTSSS, 1)
	sc.Queries = QueryClasses(rng, 0, 1, time.Second)
	if _, err := Run(sc); err == nil {
		t.Fatal("Run with an invalid workload succeeded")
	}
}
