package essat_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/essat/essat"
)

// quickScenario returns a fast full-stack scenario on the public API.
func quickScenario(p essat.Protocol, seed int64) essat.Scenario {
	sc := essat.DefaultScenario(p, seed)
	sc.Duration = 25 * time.Second
	sc.MeasureFrom = 5 * time.Second
	rng := rand.New(rand.NewSource(seed * 17))
	sc.Queries = essat.QueryClasses(rng, 1.0, 1, 5*time.Second)
	return sc
}

func TestPublicAPIRun(t *testing.T) {
	res, err := essat.Run(quickScenario(essat.DTSSS, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeSize < 40 {
		t.Fatalf("tree size = %d, implausibly small for the default deployment", res.TreeSize)
	}
	if res.DutyCycle <= 0 || res.DutyCycle > 0.5 {
		t.Fatalf("DTS-SS duty cycle = %v, out of plausible range", res.DutyCycle)
	}
	if res.Latency.N == 0 {
		t.Fatal("no latency samples")
	}
}

func TestAllProtocolsListed(t *testing.T) {
	ps := essat.AllProtocols()
	if len(ps) != 7 {
		t.Fatalf("AllProtocols = %v, want 7 entries", ps)
	}
	seen := map[essat.Protocol]bool{}
	for _, p := range ps {
		seen[p] = true
	}
	for _, want := range []essat.Protocol{essat.DTSSS, essat.STSSS, essat.NTSSS, essat.SPAN, essat.PSM, essat.SYNC, essat.TMAC} {
		if !seen[want] {
			t.Fatalf("missing protocol %s", want)
		}
	}
}

// TestListingsHaveDistinctNames checks that no listing offers a name
// twice: a name selects one model, so a repeat would shadow an entry.
func TestListingsHaveDistinctNames(t *testing.T) {
	var protocols, figures []string
	for _, p := range essat.AllProtocols() {
		protocols = append(protocols, string(p))
	}
	for _, f := range essat.FigureCatalog() {
		figures = append(figures, f.ID)
	}
	listings := map[string][]string{
		"protocols":           protocols,
		"topology generators": essat.TopologyGenerators(),
		"channel models":      essat.ChannelModels(),
		"radio profiles":      essat.RadioProfiles(),
		"dynamics kinds":      essat.DynamicsKinds(),
		"metric sinks":        essat.MetricSinks(),
		"figures":             figures,
	}
	for layer, names := range listings {
		if len(names) == 0 {
			t.Errorf("%s: empty listing", layer)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if seen[n] {
				t.Errorf("%s: %q listed twice in %v", layer, n, names)
			}
			seen[n] = true
		}
	}
}

func TestQueryClassesRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	specs := essat.QueryClasses(rng, 2.0, 2, 10*time.Second)
	if len(specs) != 6 {
		t.Fatalf("got %d specs, want 6", len(specs))
	}
	// Rate ratio 6:3:2 → periods 0.5s, 1s, 1.5s.
	wantPeriods := map[int]time.Duration{1: 500 * time.Millisecond, 2: time.Second, 3: 1500 * time.Millisecond}
	for _, s := range specs {
		if s.Period != wantPeriods[s.Class] {
			t.Fatalf("class %d period = %v, want %v", s.Class, s.Period, wantPeriods[s.Class])
		}
		if s.Phase < 0 || s.Phase >= 10*time.Second {
			t.Fatalf("phase %v out of range", s.Phase)
		}
	}
	// IDs must be unique.
	ids := map[essat.QueryID]bool{}
	for _, s := range specs {
		if ids[s.ID] {
			t.Fatalf("duplicate query ID %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// TestHeadlineClaim reproduces the abstract's headline numbers in a quick
// setting: DTS-SS duty cycle 38-87% lower than SPAN, and query latency
// 36-98% lower than PSM and SYNC.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack comparison")
	}
	run := func(p essat.Protocol) *essat.Result {
		res, err := essat.Run(quickScenario(p, 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dts := run(essat.DTSSS)
	span := run(essat.SPAN)
	psm := run(essat.PSM)
	sync := run(essat.SYNC)

	dutyReduction := 1 - dts.DutyCycle/span.DutyCycle
	if dutyReduction < 0.38 {
		t.Errorf("DTS-SS duty only %.0f%% lower than SPAN, paper claims 38-87%%", dutyReduction*100)
	}
	t.Logf("duty: DTS-SS %.1f%% vs SPAN %.1f%% (%.0f%% lower)",
		dts.DutyCycle*100, span.DutyCycle*100, dutyReduction*100)

	for _, base := range []*essat.Result{psm, sync} {
		latReduction := 1 - float64(dts.Latency.Mean)/float64(base.Latency.Mean)
		if latReduction < 0.36 {
			t.Errorf("DTS-SS latency only %.0f%% lower than %s, paper claims 36-98%%",
				latReduction*100, base.Protocol)
		}
		t.Logf("latency: DTS-SS %v vs %s %v (%.0f%% lower)",
			dts.Latency.Mean.Round(time.Millisecond), base.Protocol,
			base.Latency.Mean.Round(time.Millisecond), latReduction*100)
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := essat.Run(quickScenario(essat.DTSSS, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := essat.Run(quickScenario(essat.DTSSS, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.DutyCycle != b.DutyCycle || a.Latency.Mean != b.Latency.Mean || a.Events != b.Events {
		t.Fatalf("identical scenarios diverged: %+v vs %+v", a, b)
	}
	c, err := essat.Run(quickScenario(essat.DTSSS, 6))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events == c.Events && a.DutyCycle == c.DutyCycle {
		t.Fatal("different seeds produced identical results")
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := essat.DefaultScenario(essat.DTSSS, 1)
	if _, err := essat.Run(sc); err == nil {
		t.Error("scenario without queries accepted")
	}
	sc = quickScenario("BOGUS", 1)
	if _, err := essat.Run(sc); err == nil {
		t.Error("unknown protocol accepted")
	}
}
