// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5) and the studies beside it. BenchmarkFigures runs each
// FigureCatalog entry's declared grid, one sub-benchmark per entry, at a
// scaled-down setting (shorter runs, one seed, fewer nodes than the
// paper's 200 s × 5 seeds × 80 nodes) and logs the resulting table; run
// cmd/essat-bench with -paper for the full-fidelity tables recorded in
// EXPERIMENTS.md.
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

// BenchmarkFigures regenerates every catalog figure, one sub-benchmark
// per entry, and logs its table.
func BenchmarkFigures(b *testing.B) {
	for _, info := range essat.FigureCatalog() {
		info := info
		b.Run(info.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := info.Run(benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					logFigure(b, fig)
				}
			}
		})
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
