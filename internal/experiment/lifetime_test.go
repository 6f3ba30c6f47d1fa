package experiment

import (
	"math/rand"
	"testing"
	"time"

	"github.com/essat/essat/internal/topology"
)

func TestBatteryDeathsOccurAndNetworkSurvives(t *testing.T) {
	sc := DefaultScenario(DTSSS, 2)
	sc.Topology = topology.Config{NumNodes: 40, AreaSide: 400, Range: 125}
	sc.Duration = 40 * time.Second
	sc.MeasureFrom = 5 * time.Second
	rng := rand.New(rand.NewSource(3))
	sc.Queries = QueryClasses(rng, 5, 1, 5*time.Second)
	sc.BatteryJ = 0.15 // tiny: guarantees deaths within the run
	sc.FailureThreshold = 3

	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatteryDeaths == 0 {
		t.Fatal("no battery deaths with a 0.15 J budget at 5 Hz")
	}
	if res.FirstDeath <= 0 || res.FirstDeath > sc.Duration {
		t.Fatalf("FirstDeath = %v, out of range", res.FirstDeath)
	}
	// The root and survivors keep producing: some latency samples must
	// exist and coverage stays positive.
	if res.Latency.N == 0 {
		t.Fatal("network collapsed entirely after battery deaths")
	}
	if res.Coverage <= 1 {
		t.Fatalf("coverage = %.1f, want > 1", res.Coverage)
	}
}

func TestNoBatteryMeansNoDeaths(t *testing.T) {
	sc := DefaultScenario(DTSSS, 2)
	sc.Topology = topology.Config{NumNodes: 30, AreaSide: 350, Range: 125}
	sc.Duration = 20 * time.Second
	sc.MeasureFrom = 5 * time.Second
	rng := rand.New(rand.NewSource(3))
	sc.Queries = QueryClasses(rng, 1, 1, 5*time.Second)

	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatteryDeaths != 0 || res.FirstDeath != 0 {
		t.Fatalf("deaths without batteries: %d at %v", res.BatteryDeaths, res.FirstDeath)
	}
	if res.EnergyMean <= 0 || res.EnergyMax < res.EnergyMean {
		t.Fatalf("energy accounting wrong: mean %.3f max %.3f", res.EnergyMean, res.EnergyMax)
	}
	if res.NetworkLifetime <= 0 {
		t.Fatal("no lifetime estimate")
	}
}

func TestSpanDiesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	firstDeath := func(p Protocol) time.Duration {
		sc := DefaultScenario(p, 4)
		sc.Topology = topology.Config{NumNodes: 40, AreaSide: 400, Range: 125}
		sc.Duration = 60 * time.Second
		sc.MeasureFrom = 5 * time.Second
		rng := rand.New(rand.NewSource(3))
		sc.Queries = QueryClasses(rng, 5, 1, 5*time.Second)
		sc.BatteryJ = 0.5
		sc.FailureThreshold = 3
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.FirstDeath == 0 {
			return sc.Duration
		}
		return res.FirstDeath
	}
	span := firstDeath(SPAN)
	dts := firstDeath(DTSSS)
	if span >= dts {
		t.Fatalf("SPAN's always-on backbone (first death %v) should drain before DTS-SS (%v)", span, dts)
	}
}
