package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/essat/essat/internal/sim"
)

// Budget bounds one run's resource consumption, for embedding the
// engine in a long-running process where a single pathological scenario
// must not monopolize a worker. The zero value is unlimited.
type Budget struct {
	// WallClock bounds the wall-clock time Simulate may spend; 0 means
	// unlimited. The deadline is polled on the engine's amortized check
	// cadence (every few thousand events), so enforcement granularity
	// is roughly a millisecond.
	WallClock time.Duration
	// MaxEvents bounds the number of simulator events one run may fire;
	// 0 means unlimited. Unlike the wall-clock bound it is enforced
	// exactly and deterministically.
	MaxEvents uint64
}

// BudgetExceededError reports a run terminated because it exhausted its
// resource budget. The run's engine is left mid-simulation; results
// were not collected.
type BudgetExceededError struct {
	// Resource is "wall-clock" or "events".
	Resource string
	// Budget is the bound that was exceeded.
	Budget Budget
	// Events is the number of events the run had fired when terminated;
	// Elapsed the wall-clock time it had spent.
	Events  uint64
	Elapsed time.Duration
}

func (e *BudgetExceededError) Error() string {
	switch e.Resource {
	case "wall-clock":
		return fmt.Sprintf("experiment: run exceeded its wall-clock budget %v (%d events in %v)",
			e.Budget.WallClock, e.Events, e.Elapsed.Round(time.Millisecond))
	default:
		return fmt.Sprintf("experiment: run exceeded its event budget %d (after %v)",
			e.Budget.MaxEvents, e.Elapsed.Round(time.Millisecond))
	}
}

// PanicError reports a run whose stack panicked mid-flight, converted
// into an error at the RunContextWith boundary so one bad scenario can
// never take down a process hosting many. It carries everything needed
// to reproduce the crash: the protocol, the seed, and — when the run
// came through the declarative spec layer — the spec JSON itself.
//
// The engine's internal panics (scheduling into the past, radio state
// machine violations, ...) indicate protocol-stack bugs, not user
// error; containment turns them into a reproducible bug report instead
// of a crashed server.
type PanicError struct {
	Protocol Protocol
	Seed     int64
	// Value is the recovered panic value; Stack the goroutine stack at
	// the panic site.
	Value any
	Stack []byte
	// SpecJSON is the declarative spec that produced the run, when it
	// came through RunSpecContextWith; nil for imperative scenarios.
	SpecJSON []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment: run panicked (protocol %s, seed %d): %v", e.Protocol, e.Seed, e.Value)
}

// SimulateContext is Simulate with a cancellation context and a
// resource budget. It drains the event queue up to the scenario's
// duration unless ctx is canceled, ctx's deadline passes, or the budget
// runs out first, returning ctx.Err() or a *BudgetExceededError
// respectively. Like Simulate it must run at most once, between Build
// and Collect; on early termination the engine is left mid-run and
// Collect would see a truncated (but internally consistent) run.
//
// With a context that is never done and no wall-clock bound, nothing is
// polled: the engine runs the exact uninstrumented loop of Simulate.
func (s *Sim) SimulateContext(ctx context.Context, b Budget) error {
	start := time.Now()
	var check func() error
	if ctx.Done() != nil || b.WallClock > 0 {
		var budgetDeadline, ctxDeadline time.Time
		if b.WallClock > 0 {
			budgetDeadline = start.Add(b.WallClock)
		}
		if d, ok := ctx.Deadline(); ok {
			ctxDeadline = d
		}
		check = func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			now := time.Now()
			// The context's deadline is its own error even when observed
			// here a beat before the context's timer fires.
			if !ctxDeadline.IsZero() && now.After(ctxDeadline) {
				return context.DeadlineExceeded
			}
			if !budgetDeadline.IsZero() && now.After(budgetDeadline) {
				return &BudgetExceededError{
					Resource: "wall-clock",
					Budget:   b,
					Events:   s.Eng.Processed(),
					Elapsed:  time.Since(start),
				}
			}
			return nil
		}
	}
	_, err := s.Eng.RunChecked(s.Scenario.Duration, b.MaxEvents, check)
	if errors.Is(err, sim.ErrEventBudget) {
		err = &BudgetExceededError{
			Resource: "events",
			Budget:   b,
			Events:   s.Eng.Processed(),
			Elapsed:  time.Since(start),
		}
	}
	return err
}

// Run executes the scenario and collects metrics: Build, Simulate, and
// Collect under a background context and no budget, with a panicking
// protocol stack contained into a *PanicError.
func Run(sc Scenario) (*Result, error) {
	return RunContextWith(context.Background(), nil, sc, Budget{})
}

// RunSpec compiles and runs a declarative spec; see RunSpecContextWith.
func RunSpec(s *Spec) (*Result, error) {
	return RunSpecContextWith(context.Background(), nil, s, Budget{})
}

// BuildWith constructs the scenario's simulation on arena a without
// running it: place the topology (via the generator table), build
// the routing tree, attach the protocol stack to every member (via the
// protocol table), and schedule queries, flows, the perturbation table,
// and the warm-up snapshot. A nil arena builds on a private arena of
// its own, like any other; a reused arena's engine (event freelist,
// typed memory pools) is reset instead of reallocated, and deployments (topology + routing-tree template)
// are served from the arena's cache when an identical placement was
// built before. Results are byte-identical either way — the arena
// changes where memory comes from, never what the run computes.
func BuildWith(a *Arena, sc Scenario) (*Sim, error) { return build(sc, a) }

// RunContextWith runs the scenario on arena a (nil for a private one)
// with the three robustness properties a long-running host needs: the
// run can be canceled through ctx, bounded by a resource budget, and a
// panic anywhere in Build, the event loop, or Collect is contained into
// a *PanicError instead of unwinding into the caller's process. A
// contained panic also drops the arena's engine, so the arena is safe
// to reuse. With a background context and no budget it is Run, and
// every golden digest is unchanged.
func RunContextWith(ctx context.Context, a *Arena, sc Scenario, b Budget) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			a.discard()
			res = nil
			err = &PanicError{Protocol: sc.Protocol, Seed: sc.Seed, Value: r, Stack: debug.Stack()}
		}
	}()
	s, err := build(sc, a)
	if err != nil {
		return nil, err
	}
	if err := s.SimulateContext(ctx, b); err != nil {
		return nil, err
	}
	return s.Collect(), nil
}

// RunSpecContextWith compiles a declarative spec and runs it through
// RunContextWith. A contained panic's error carries the marshaled spec,
// making the failure reproducible from the error alone (essat-sim
// -scenario).
func RunSpecContextWith(ctx context.Context, a *Arena, s *Spec, b Budget) (*Result, error) {
	sc, err := s.Scenario()
	if err != nil {
		return nil, err
	}
	res, err := RunContextWith(ctx, a, sc, b)
	var pe *PanicError
	if errors.As(err, &pe) && pe.SpecJSON == nil {
		if data, jerr := json.Marshal(s); jerr == nil {
			pe.SpecJSON = data
		}
	}
	return res, err
}
