package experiment

import (
	"testing"
	"time"
)

// Shape-regression tests: scaled-down versions of the paper's figures
// asserting the qualitative results the reproduction is built around.
// They guard against protocol changes silently inverting a paper claim.

func shapeOptions() Options {
	return Options{Duration: 25 * time.Second, Seeds: 2, Nodes: 60}
}

func TestShapeFig2Knee(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	s := catalogSweep(t, "fig2")
	s.xs = []float64{0.05, 0.2, 0.7}
	fig, err := s.run(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	duty, lat := fig.Series[0].Points, fig.Series[1].Points
	// Below the knee duty is elevated; past it duty is flat.
	if duty[0].Mean <= duty[1].Mean {
		t.Errorf("duty at D=50ms (%.2f) should exceed duty at 200ms (%.2f)", duty[0].Mean, duty[1].Mean)
	}
	if diff := duty[1].Mean - duty[2].Mean; diff > 1.0 || diff < -1.0 {
		t.Errorf("duty should be flat past the knee: %.2f vs %.2f", duty[1].Mean, duty[2].Mean)
	}
	// Latency grows roughly linearly with D past the knee.
	if lat[2].Mean <= lat[1].Mean*1.5 {
		t.Errorf("latency at D=700ms (%.3f) should be well above 200ms (%.3f)", lat[2].Mean, lat[1].Mean)
	}
}

func TestShapeFig3Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	s := catalogSweep(t, "fig3")
	s.xs = []float64{3}
	fig, err := s.run(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	duty := map[string]float64{}
	for _, s := range fig.Series {
		duty[s.Name] = s.Points[0].Mean
	}
	// Every ESSAT protocol beats every baseline.
	for _, e := range []string{"DTS-SS", "STS-SS", "NTS-SS"} {
		for _, b := range []string{"PSM", "SPAN"} {
			if duty[e] >= duty[b] {
				t.Errorf("%s duty (%.1f) not below %s (%.1f)", e, duty[e], b, duty[b])
			}
		}
	}
	// The headline band: DTS-SS at least 38%% below SPAN.
	if duty["DTS-SS"] > duty["SPAN"]*0.62 {
		t.Errorf("DTS-SS (%.1f) not 38%%+ below SPAN (%.1f)", duty["DTS-SS"], duty["SPAN"])
	}
	// Shaped protocols beat unshaped.
	if duty["DTS-SS"] >= duty["NTS-SS"] {
		t.Errorf("DTS-SS (%.1f) not below NTS-SS (%.1f)", duty["DTS-SS"], duty["NTS-SS"])
	}
}

func TestShapeFig5RankTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	fig, err := catalogSweep(t, "fig5").run(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]Point{}
	for _, s := range fig.Series {
		byName[s.Name] = s.Points
	}
	slope := func(pts []Point) float64 {
		if len(pts) < 2 {
			t.Fatal("too few rank buckets")
		}
		first, last := pts[0], pts[len(pts)-1]
		return (last.Mean - first.Mean) / (last.X - first.X)
	}
	nts := slope(byName["NTS-SS"])
	dts := slope(byName["DTS-SS"])
	if nts <= 0 {
		t.Errorf("NTS-SS duty should grow with rank, slope = %.2f", nts)
	}
	// Eq. 1: NTS grows faster with rank than the shaped protocol.
	if nts <= dts {
		t.Errorf("NTS-SS rank slope (%.2f) should exceed DTS-SS (%.2f)", nts, dts)
	}
}

func TestShapeFig6STSLatencyFallsWithRate(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	s := catalogSweep(t, "fig6")
	s.xs = []float64{1, 5}
	fig, err := s.run(shapeOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		switch s.Name {
		case "STS-SS":
			if s.Points[1].Mean >= s.Points[0].Mean {
				t.Errorf("STS-SS latency should fall with rate: %.3f → %.3f",
					s.Points[0].Mean, s.Points[1].Mean)
			}
		case "DTS-SS":
			// DTS stays well below STS at low rate and under 0.5 s always.
			if s.Points[0].Mean > 0.5 || s.Points[1].Mean > 0.5 {
				t.Errorf("DTS-SS latency out of band: %v", s.Points)
			}
		}
	}
}

func TestShapeOverheadSubBit(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	// Phase shifts concentrate in the startup transient while schedules
	// converge, so the amortized overhead falls with run length: the
	// paper-scale 200 s runs measure 0.15–0.36 bits/report. This scaled
	// 80 s run tolerates the residual transient but still catches any
	// regression toward per-report synchronization (32 bits).
	o := shapeOptions()
	o.Duration = 80 * time.Second
	o.Seeds = 1
	s := catalogSweep(t, "overhead")
	s.xs = []float64{1, 5}
	fig, err := s.run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fig.Series[0].Points {
		if p.Mean >= 1.5 {
			t.Errorf("phase overhead at %.0f Hz = %.2f bits/report, paper claims < 1 at steady state", p.X, p.Mean)
		}
	}
}
