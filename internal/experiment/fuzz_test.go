package experiment

import (
	"math/rand"
	"testing"
	"time"

	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/query"
)

// FuzzDynamicsSpec is the dynamics layer's safety property: any *valid*
// injector configuration — whatever the fuzzer throws at the parameter
// space — must run to completion with a completely clean invariant
// audit. Raw fuzz inputs are clamped into each kind's valid range, so
// the property under test is "valid specs never trip an invariant",
// not input validation (which has its own table tests).
//
// Run `go test -fuzz FuzzDynamicsSpec ./internal/experiment` to explore
// beyond the seed corpus.
func FuzzDynamicsSpec(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(8000), uint16(6000), uint8(2), uint8(40), uint8(4), uint16(500), false)
	f.Add(int64(2), uint8(1), uint16(5000), uint16(9000), uint8(1), uint8(80), uint8(9), uint16(300), true)
	f.Add(int64(3), uint8(2), uint16(2000), uint16(4000), uint8(3), uint8(10), uint8(1), uint16(900), false)
	f.Add(int64(4), uint8(0), uint16(0), uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), true)
	f.Add(int64(5), uint8(7), uint16(60000), uint16(60000), uint8(200), uint8(255), uint8(255), uint16(60000), true)
	f.Add(int64(6), uint8(3), uint16(4000), uint16(0), uint8(7), uint8(0), uint8(0), uint16(0), true)
	f.Add(int64(7), uint8(3), uint16(6000), uint16(0), uint8(0), uint8(0), uint8(0), uint16(0), false)
	f.Add(int64(8), uint8(4), uint16(5000), uint16(0), uint8(1), uint8(0), uint8(0), uint16(0), false)

	f.Fuzz(func(t *testing.T, seed int64, kindSel uint8,
		atMs, durMs uint16, count, peakPct, steps uint8, periodMs uint16, permanent bool) {

		at := time.Duration(atMs%12000) * time.Millisecond     // within or past the run
		dur := time.Duration(1+durMs%10000) * time.Millisecond // 1ms..10s
		period := time.Duration(200+periodMs%2000) * time.Millisecond

		var d Dynamic
		switch kindSel % 5 {
		case 0:
			d = Dynamic{Kind: dynamics.KindCrash, Params: dynamics.Params{
				At: at, Count: 1 + int(count%5), Seed: seed,
			}}
			if !permanent {
				d.Params.Duration = dur
			}
		case 1:
			d = Dynamic{Kind: dynamics.KindLinkLoss, Params: dynamics.Params{
				At: at, Duration: dur, Peak: 0.05 + float64(peakPct%90)/100,
				Steps: 1 + int(steps%12), Seed: seed,
			}}
		case 2:
			if period > dur {
				dur = period // keep the spec valid: period <= burst length
			}
			d = Dynamic{Kind: dynamics.KindBurst, Params: dynamics.Params{
				At: at, Duration: dur, Period: period,
				Queries: 1 + int(count%3), Seed: seed,
			}}
		case 3:
			d = Dynamic{Kind: dynamics.KindFail, Params: dynamics.Params{At: at}}
			if permanent {
				node := int(count % 20) // any node: the root, a member or not
				d.Params.Node = &node
			}
		case 4:
			// Query IDs 0–2 exist; 3 is one the run never registered.
			d = Dynamic{Kind: dynamics.KindStop, Params: dynamics.Params{At: at, Query: query.ID(count % 4)}}
		}

		sc := DefaultScenario(DTSSS, 1+seed%16)
		sc.Topology.NumNodes = 20
		sc.Topology.AreaSide = 250
		sc.Duration = 12 * time.Second
		sc.MeasureFrom = 2 * time.Second
		sc.FailureThreshold = 3
		sc.Queries = QueryClasses(rand.New(rand.NewSource(seed*7919+1)), 1.0, 1, 3*time.Second)
		sc.Audit = true
		sc.Dynamics = []Dynamic{d}

		res, err := Run(sc)
		if err != nil {
			t.Fatalf("valid dynamics spec %+v failed to run: %v", d, err)
		}
		if res.Audit.Total != 0 {
			t.Fatalf("valid dynamics spec %+v tripped %d invariants, first: %s",
				d, res.Audit.Total, res.Audit.Violations[0])
		}
	})
}
