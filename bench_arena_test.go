package essat_test

import (
	"testing"
	"time"

	"github.com/essat/essat"
)

// BenchmarkLargeRunArena is BenchmarkLargeRun's steady-state companion:
// the identical 1000-node spec repeated on one reused arena, so
// allocs/op converges to the per-run allocation floor the arenas leave
// behind (BenchmarkLargeRun measures the allocate-everything path).
func BenchmarkLargeRunArena(b *testing.B) {
	spec, err := essat.LoadSpec("testdata/large.json")
	if err != nil {
		b.Fatal(err)
	}
	spec.Duration = essat.Dur(6 * time.Second)
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
			b.ReportMetric(float64(res.Events)/6, "events/simsec")
		}
	}
}
