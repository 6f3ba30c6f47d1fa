// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5). Each BenchmarkFigN runs a scaled-down version of the
// corresponding experiment (shorter runs, fewer seeds than the paper's
// 200 s × 5 seeds) and logs the resulting series; run cmd/essat-bench
// with -paper for the full-fidelity tables recorded in EXPERIMENTS.md.
//
//	go test -bench=. -benchmem
package essat_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat"
)

// benchOptions keeps each benchmark iteration to a few seconds.
func benchOptions() essat.Options {
	return essat.Options{Duration: 12 * time.Second, Seeds: 1, Nodes: 60}
}

func logFigure(b *testing.B, f *essat.Figure) {
	b.Helper()
	var sb strings.Builder
	f.Fprint(&sb)
	b.Log("\n" + sb.String())
}

func BenchmarkFig2_DeadlineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		deadlines := []time.Duration{50 * time.Millisecond, 125 * time.Millisecond,
			300 * time.Millisecond, 600 * time.Millisecond}
		fig, err := essat.Fig2Deadline(benchOptions(), deadlines)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig3_DutyCycleVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig3DutyVsRate(benchOptions(), []float64{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig4_DutyCycleVsQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig4DutyVsQueries(benchOptions(), []int{1, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig5_DutyCycleByRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig5DutyByRank(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig6_LatencyVsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig6LatencyVsRate(benchOptions(), []float64{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig7_LatencyVsQueries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig7LatencyVsQueries(benchOptions(), []int{1, 5, 10})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkFig8_SleepHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, below, err := essat.Fig8SleepHistogram(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
			b.Logf("%% sleeps < 2.5ms (DTS/STS/NTS): %.2f / %.2f / %.2f", below[0], below[1], below[2])
		}
	}
}

func BenchmarkFig9_BreakEvenImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.Fig9BreakEven(benchOptions(), []float64{1, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

func BenchmarkOverhead_PhaseUpdates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := essat.OverheadPhaseUpdates(benchOptions(), []float64{1, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			logFigure(b, fig)
		}
	}
}

// BenchmarkSingleRun measures the raw cost of one 20-second DTS-SS
// simulation at the paper's scale (simulator throughput).
func BenchmarkSingleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := essat.DefaultScenario(essat.DTSSS, int64(i+1))
		sc.Duration = 20 * time.Second
		sc.MeasureFrom = 2 * time.Second
		rng := rand.New(rand.NewSource(int64(i + 1)))
		sc.Queries = essat.QueryClasses(rng, 2, 1, 5*time.Second)
		res, err := essat.Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events)/20, "events/simsec")
		}
	}
}

// BenchmarkLargeRun measures the 1000-node scale tier (testdata/
// large.json, shortened): the spatial-hash topology build plus the
// timer-wheel event loop at 12.5× the paper's node count. The same
// scenario backs `essat-bench -scale`, which records it in the
// BENCH_*.json `scale` section.
func BenchmarkLargeRun(b *testing.B) {
	spec, err := essat.LoadSpec("testdata/large.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = essat.Dur(6 * time.Second)
	spec.MeasureFrom = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := *spec
		res, err := essat.RunSpec(&run)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events)/6, "events/simsec")
			b.ReportMetric(float64(res.TreeSize), "tree_members")
		}
	}
}

// BenchmarkHugeRun measures the 10000-node scale tier (testdata/
// huge.json, shortened) on a reused arena — the repeated-spec sweep the
// per-run memory arenas target: after the first iteration warms the
// slabs and the deployment cache, later iterations reset rather than
// reallocate, so allocs/op reports the steady-state floor. The same
// scenario backs `essat-bench -huge`, which records it in the
// BENCH_*.json `huge` section.
func BenchmarkHugeRun(b *testing.B) {
	spec, err := essat.LoadSpec("testdata/huge.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = essat.Dur(5 * time.Second)
	spec.MeasureFrom = nil
	arena := essat.NewArenaWithCache(essat.NewDeployCache(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := *spec
		sc, err := run.Scenario()
		if err != nil {
			b.Fatal(err)
		}
		res, err := essat.RunWith(arena, sc)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Events)/5, "events/simsec")
			b.ReportMetric(float64(res.TreeSize), "tree_members")
		}
	}
}
