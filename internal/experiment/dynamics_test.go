package experiment

import (
	"math/rand"
	"testing"
	"time"

	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/topology"
)

// stopRow deregisters query q at at.
func stopRow(at time.Duration, q query.ID) Dynamic {
	return Dynamic{Kind: dynamics.KindStop, Params: dynamics.Params{At: at, Query: q}}
}

// failRow kills node at at, or a random victim when node is nil.
func failRow(at time.Duration, node *int) Dynamic {
	return Dynamic{Kind: dynamics.KindFail, Params: dynamics.Params{At: at, Node: node}}
}

// dynScenario is a small, fast deployment for workload-dynamics tests.
func dynScenario(seed int64) Scenario {
	sc := DefaultScenario(DTSSS, seed)
	sc.Topology = topology.Config{NumNodes: 40, AreaSide: 400, Range: 125}
	sc.Duration = 40 * time.Second
	sc.MeasureFrom = 20 * time.Second
	return sc
}

func TestQueryStopShrinksWorkload(t *testing.T) {
	// Three 1 Hz-class queries; two are deregistered at 15 s, before the
	// measurement window opens at 20 s. Compare against the same run
	// without stops: post-stop duty must be clearly lower.
	build := func(withStops bool) float64 {
		sc := dynScenario(3)
		rng := rand.New(rand.NewSource(9))
		sc.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)
		if withStops {
			sc.Dynamics = []Dynamic{
				stopRow(15*time.Second, sc.Queries[0].ID),
				stopRow(15*time.Second, sc.Queries[1].ID),
			}
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res.DutyCycle
	}
	full := build(false)
	reduced := build(true)
	if reduced >= full*0.8 {
		t.Fatalf("duty after deregistering 2 of 3 queries = %.4f, want well below %.4f", reduced, full)
	}
	if reduced <= 0 {
		t.Fatal("remaining query stopped producing")
	}
}

func TestQueryStopKeepsRemainingQueryAlive(t *testing.T) {
	sc := dynScenario(4)
	rng := rand.New(rand.NewSource(9))
	sc.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)
	keep := sc.Queries[2].ID
	sc.Dynamics = []Dynamic{
		stopRow(15*time.Second, sc.Queries[0].ID),
		stopRow(15*time.Second, sc.Queries[1].ID),
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving query's class still records completions in the
	// measurement window.
	class := 0
	for _, q := range sc.Queries {
		if q.ID == keep {
			class = q.Class
		}
	}
	if res.LatencyByClass[class].N == 0 {
		t.Fatal("surviving query produced no completions after the stops")
	}
}

func TestSetupSlotCostsEnergy(t *testing.T) {
	run := func(slot time.Duration) float64 {
		sc := dynScenario(5)
		sc.MeasureFrom = 2 * time.Second
		rng := rand.New(rand.NewSource(9))
		// Late phases so the setup slots fall inside the measured window.
		sc.Queries = []query.Spec{
			{ID: 0, Period: 2 * time.Second, Phase: 10 * time.Second, Class: 1},
			{ID: 1, Period: 3 * time.Second, Phase: 20 * time.Second, Class: 2},
		}
		_ = rng
		sc.SetupSlot = slot
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res.DutyCycle
	}
	without := run(0)
	with := run(2 * time.Second)
	if with <= without {
		t.Fatalf("setup slot should cost energy: duty %.4f (with) vs %.4f (without)", with, without)
	}
}

func TestStopUnknownQueryHarmless(t *testing.T) {
	sc := dynScenario(6)
	rng := rand.New(rand.NewSource(9))
	sc.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)
	sc.Dynamics = []Dynamic{stopRow(10*time.Second, 999)}
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCapacityRecordsEvents(t *testing.T) {
	sc := dynScenario(7)
	rng := rand.New(rand.NewSource(9))
	sc.Queries = QueryClasses(rng, 1.0, 1, 5*time.Second)
	sc.TraceCapacity = 64
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(res.Trace) > 64 {
		t.Fatalf("trace exceeded capacity: %d", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].At < res.Trace[i-1].At {
			t.Fatal("trace not chronological")
		}
	}
}
