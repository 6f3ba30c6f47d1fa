package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/essat/essat/internal/stats"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs, so they read the same relative paths.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// declared is the metric section of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

var (
	nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitSyntax = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNamesMatchBenchmarkJSON checks that both output modes print
// exactly the metrics BENCHMARK.json declares, with its units, and that
// every name and unit is well formed.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	check := func(mode string, want []struct{ Name, Unit string }, got map[string]metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", mode, len(got), len(want))
		}
		for _, m := range want {
			if !nameSyntax.MatchString(m.Name) || !unitSyntax.MatchString(m.Unit) {
				t.Errorf("%s: malformed name or unit %q %q", mode, m.Name, m.Unit)
			}
			g, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not printed", mode, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s printed in %q, declared in %q", mode, m.Name, g.Unit, m.Unit)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd(1, time.Second, summary{}, time.Second, 1, 1))
	check("per_layer", d.PerLayer, (&layerStats{}).metrics(nil, nil, nil, time.Second, time.Second, gcReading{}, gcReading{}))
}

// TestSeedChangesInputs checks that the seed argument changes the
// inputs a pass runs, and that the same seed repeats them.
func TestSeedChangesInputs(t *testing.T) {
	keys := func(jobs []gridJob) (out []string) {
		for _, j := range jobs {
			out = append(out, j.key)
		}
		return out
	}
	if a, b := keys(gridJobs(1, 0, nil)), keys(gridJobs(2, 0, nil)); equalStrings(a, b) {
		t.Error("paper-grid: seeds 1 and 2 run the same job sequence")
	}
	if a, b := keys(gridJobs(7, 0, nil)), keys(gridJobs(7, 0, nil)); !equalStrings(a, b) {
		t.Error("paper-grid: seed 7 gives two different job sequences")
	}
	if hugeSimSeed(1, 0) == hugeSimSeed(2, 0) {
		t.Error("tier-10k: seeds 1 and 2 give the same simulation seed")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBadScenarioCountsAsFailed injects a scenario that cannot build
// between valid grid runs: it must count as one failed operation without
// stopping the pass, and the valid runs must still verify.
func TestBadScenarioCountsAsFailed(t *testing.T) {
	ref, err := loadReference(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	jobs := gridJobs(1, 0, nil)
	bad := gridJob{key: "injected"} // no queries: Build refuses it
	jobs = append([]gridJob{jobs[0], bad}, jobs[1:3]...)
	b := &bench{ref: ref}
	b.gridPass(jobs)()
	if b.attempted != 4 || b.failed != 1 {
		t.Fatalf("attempted %d, failed %d (%v); want 4 and 1", b.attempted, b.failed, b.problems)
	}
	if len(b.samples) != 4 {
		t.Errorf("%d samples, want 4", len(b.samples))
	}
}

// TestTailNeverCollapses checks run_tail_ms's percentile choice: it
// always leaves ten samples beyond it, goes through stats.Percentile, and
// flags a sample too small for any tail instead of reporting the median.
func TestTailNeverCollapses(t *testing.T) {
	for n := 1; n <= 600; n++ {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[n-1-i] = time.Duration(i+1) * time.Millisecond // distinct, unsorted
		}
		s := summarize(samples)
		sorted := make([]time.Duration, n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		if s.p50 != stats.Percentile(sorted, 0.5) || s.tail != stats.Percentile(sorted, s.tailP) {
			t.Fatalf("n=%d: p50 %v tail %v do not match stats.Percentile", n, s.p50, s.tail)
		}
		if s.tailP < 1 && s.tailBeyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, s.tailP*100, s.tailBeyond)
		}
		if n > 1 && s.tail <= s.p50 {
			t.Fatalf("n=%d: tail %v collapses to p50 %v", n, s.tail, s.p50)
		}
	}
	if s := summarize([]time.Duration{time.Millisecond}); s.tailP != 1 || s.tailBeyond != 0 {
		t.Errorf("one sample: tail reported as p%g with %d beyond; want it flagged (p100, 0 beyond)", s.tailP*100, s.tailBeyond)
	}
	if p, beyond := tailPercentile(240); p != 0.9 || beyond != 24 {
		t.Errorf("240 samples: p%g with %d beyond, want p90 with 24", p*100, beyond)
	}
}

// TestLeafSharesAttributeTheEngine profiles the engine microbenchmark
// and checks that the profile decoder attributes it mostly to sim.
func TestLeafSharesAttributeTheEngine(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	for i := 0; i < 3; i++ {
		engineNsPerEvent(engineTiers[2].pending)
	}
	pprof.StopCPUProfile()
	shares, err := leafShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %g: %v", total, shares)
	}
	// Under the race detector most leaf frames are its own, which fold
	// onto "other"; the rest must still be mostly the engine's.
	if own := 1 - shares["other"]; shares["sim"] < own/2 {
		t.Errorf("sim share %g of an engine-only loop: %v", shares["sim"], shares)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/essat/essat/internal/sim.(*Engine).insert":       "sim",
		"github.com/essat/essat/internal/phy.(*Channel).endTx.func1": "phy",
		"runtime.mallocgc":                                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                          "runtime",
		"encoding/json.(*decodeState).object":                              "other",
		"github.com/essat/essat/internal/stats.Percentile[go.shape.int64]": "stats",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestReferenceMatchesGolden reruns the configurations golden.json pins
// under the auditor: their digests must equal the golden ones and their
// outputs the reference entries.
func TestReferenceMatchesGolden(t *testing.T) {
	ref, err := loadReference(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{ref: ref, golden: golden}
	b.gridCrossCheck()
	want := 12
	if !testing.Short() {
		b.hugeCrossCheck()
		want++
	}
	if b.attempted != want || b.failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", b.attempted, b.failed, b.problems)
	}
}
