package experiment

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/essat/essat/internal/topology"
)

func TestFigureFprint(t *testing.T) {
	f := &Figure{
		ID:     "test",
		Title:  "A test figure",
		XLabel: "x",
		YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Mean: 10, CI90: 0.5, N: 3}, {X: 2, Mean: 20, CI90: 1, N: 3}, {X: 5, Mean: 50.8125, N: 1}}},
			{Name: "b", Points: []Point{{X: 2, Mean: 5, CI90: 0.1, N: 3}}},
		},
		Notes: []string{"a note"},
	}
	var sb strings.Builder
	f.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"test", "A test figure", "a note", "10.000", "20.000", "5.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	// Row for x=1 must leave series b's cell empty, not misaligned.
	var x1, x5 string
	for _, l := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(l, "1 "):
			x1 = l
		case strings.HasPrefix(l, "5 "):
			x5 = l
		}
	}
	if strings.Contains(x1, "5.000") {
		t.Errorf("x=1 row contains series b's x=2 value: %q", x1)
	}
	if !strings.Contains(x1, "10.000 ±   0.500") {
		t.Errorf("x=1 row lost its interval: %q", x1)
	}
	// One sample has no interval: the cell prints the mean and its count,
	// never ± 0, in the width of an interval cell.
	if !strings.Contains(x5, "50.812       n=1") || strings.Contains(x5, "±") {
		t.Errorf("x=5 row (one sample) = %q, want the mean and n=1 with no ±", x5)
	}
	if !strings.Contains(out, "(y = y, mean ± 90% CI over seeds)") {
		t.Errorf("header of a table with intervals does not name them:\n%s", out)
	}

	// A table whose cells are all single samples claims no interval.
	pooled := &Figure{ID: "pooled", XLabel: "x", YLabel: "count",
		Series: []Series{{Name: "a", Points: []Point{{X: 1, Mean: 4, N: 1}, {X: 2, Mean: 7, N: 1}}}}}
	sb.Reset()
	pooled.Fprint(&sb)
	if out := sb.String(); !strings.Contains(out, "(y = count)\n") || strings.Contains(out, "CI") {
		t.Errorf("header of a table with no interval claims one:\n%s", out)
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.Duration <= 0 || o.Seeds <= 0 || o.Nodes <= 0 || o.Parallelism <= 0 {
		t.Fatalf("normalized zero options invalid: %+v", o)
	}
	p := PaperOptions()
	if p.Duration != 200*time.Second || p.Seeds != 5 || p.Nodes != 80 {
		t.Fatalf("PaperOptions = %+v", p)
	}
}

// catalogSweep returns a copy of the catalog's declaration of id, so a
// test can narrow its grid without touching the catalog.
func catalogSweep(t *testing.T, id string) sweep {
	t.Helper()
	for _, s := range figures {
		if s.id == id {
			return s
		}
	}
	t.Fatalf("no catalog figure %q", id)
	return sweep{}
}

func TestSweepParallelAggregation(t *testing.T) {
	o := Options{Duration: 6 * time.Second, Seeds: 3, Nodes: 25, Parallelism: 3}
	s := sweep{
		protocol: DTSSS,
		xs:       []float64{42},
		at: func(sc *Scenario, _ float64) {
			sc.Topology = topology.Config{NumNodes: o.Nodes, AreaSide: 300, Range: 125}
			sc.MeasureFrom = time.Second
			sc.Queries = QueryClasses(rand.New(rand.NewSource(sc.Seed)), 1, 1, time.Second)
		},
		fold:  means(duty),
		notes: []string{"a note"},
	}
	fig, err := s.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Notes[0] = "edited"; s.notes[0] != "a note" {
		t.Errorf("editing a figure's notes changed its declaration's: %q", s.notes[0])
	}
	if fig.Runs != 3 || fig.SimTime != 3*o.Duration {
		t.Fatalf("work = %+v, want 3 runs over %v", fig.Work, 3*o.Duration)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 1 {
		t.Fatalf("series = %+v, want one series of one point", fig.Series)
	}
	if pt := fig.Series[0].Points[0]; pt.X != 42 || pt.N != 3 || pt.Mean <= 0 || pt.Mean > 100 {
		t.Fatalf("point = %+v, want x=42 over 3 seeds with a duty in (0, 100]", pt)
	}
}

// TestParallelSweepDeterminism is the worker-count invariance regression:
// the figure-sweep runner must produce byte-identical output whether the
// job grid runs on one worker or eight, because aggregation happens in
// job order after all runs complete and each run is seed-deterministic.
func TestParallelSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 3 sweep twice; skipped with -short")
	}
	render := func(workers int) string {
		o := QuickOptions()
		o.Parallelism = workers
		s := catalogSweep(t, "fig3")
		s.xs = []float64{1, 5}
		fig, err := s.run(o)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		fig.Fprint(&sb)
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("figure output differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestFigureWork checks that a figure reports the work of its own grid:
// Fig. 3 at two rates and two seeds is 5 protocols × 2 rates × 2 seeds
// = 20 runs, whose events sum to the figure's total. Two such figures
// run concurrently must each report exactly their own runs.
func TestFigureWork(t *testing.T) {
	o := Options{Duration: 4 * time.Second, Seeds: 2, Nodes: 30, Parallelism: 2}
	s := catalogSweep(t, "fig3")
	s.xs = []float64{1, 3}

	var want uint64
	for _, p := range []Protocol{DTSSS, STSSS, NTSSS, PSM, SPAN} {
		for _, rate := range s.xs {
			for seed := int64(1); seed <= 2; seed++ {
				sc := o.normalized().scenario(p, seed)
				sc.Queries = QueryClasses(rand.New(rand.NewSource(seed*7919)), rate, 1, 10*time.Second)
				res, err := Run(sc)
				if err != nil {
					t.Fatal(err)
				}
				want += res.Events
			}
		}
	}

	figs := make([]*Figure, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range figs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			figs[i], errs[i] = s.run(o)
		}(i)
	}
	wg.Wait()
	for i, fig := range figs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if fig.Runs != 20 || fig.Events != want || fig.SimTime != 20*o.Duration {
			t.Errorf("figure %d work = %+v, want 20 runs, %d events, %v simulated",
				i, fig.Work, want, 20*o.Duration)
		}
	}
}

// updateFigures regenerates the figure goldens instead of comparing
// against them:
//
//	go test ./internal/experiment -run TestFigureCatalogDrivers -update-figures
//
// Regenerate ONLY for an intentional change to a figure's numbers, and
// say so in the commit message: a refactor of the figure code must
// leave every table and work total byte-identical.
var updateFigures = flag.Bool("update-figures", false, "rewrite testdata/figures/*.txt from the current implementation")

// TestFigureCatalogDrivers runs every catalog entry on a small setting:
// each returns the figure its entry names, with the entry's title, and
// reports the work of a non-empty grid. Its printed table and work
// totals must match testdata/figures/<id>.txt byte for byte.
func TestFigureCatalogDrivers(t *testing.T) {
	o := Options{Duration: 5 * time.Second, Seeds: 2, Nodes: 40}
	seen := map[string]bool{}
	for _, info := range FigureCatalog() {
		if seen[info.ID] {
			t.Errorf("catalog lists %s twice", info.ID)
		}
		seen[info.ID] = true
		t.Run(info.ID, func(t *testing.T) {
			fig, err := info.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != info.ID || fig.Title != info.Title {
				t.Errorf("Run returned %q %q, catalog says %q %q", fig.ID, fig.Title, info.ID, info.Title)
			}
			if fig.Runs == 0 || fig.Events == 0 || fig.SimTime != time.Duration(fig.Runs)*o.Duration {
				t.Errorf("work = %+v", fig.Work)
			}
			var sb strings.Builder
			fig.Fprint(&sb)
			fmt.Fprintf(&sb, "work: runs=%d events=%d simtime=%v\n", fig.Runs, fig.Events, fig.SimTime)
			path := filepath.Join("testdata", "figures", info.ID+".txt")
			if *updateFigures {
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestDisableSafeSleepAblation(t *testing.T) {
	sc := DefaultScenario(DTSSS, 1)
	sc.Topology = topology.Config{NumNodes: 30, AreaSide: 350, Range: 125}
	sc.Duration = 15 * time.Second
	sc.MeasureFrom = 3 * time.Second
	rng := rand.New(rand.NewSource(5))
	sc.Queries = QueryClasses(rng, 1, 1, 3*time.Second)
	sc.DisableSafeSleep = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Shaping without sleeping: radios stay on the whole time.
	if res.DutyCycle < 0.99 {
		t.Fatalf("duty = %.3f with Safe Sleep disabled, want ~1.0", res.DutyCycle)
	}
	// But latency is unaffected (still shaped, still delivered).
	if res.Latency.N == 0 || res.Latency.Mean > time.Second {
		t.Fatalf("latency broken without SS: %+v", res.Latency)
	}
}

func TestBFSTreeScenario(t *testing.T) {
	sc := DefaultScenario(STSSS, 1)
	sc.Topology = topology.Config{NumNodes: 30, AreaSide: 350, Range: 125}
	sc.Duration = 15 * time.Second
	sc.MeasureFrom = 3 * time.Second
	sc.BFSTree = true
	rng := rand.New(rand.NewSource(5))
	sc.Queries = QueryClasses(rng, 1, 1, 3*time.Second)
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.N == 0 {
		t.Fatal("BFS-tree scenario produced no results")
	}
}

// TestFig8RadiosTransitionInstantly: Fig. 8 measures sleep intervals
// under instantaneous radio transitions, so every member radio of a
// Fig. 8 run has zero turn-on and turn-off delays, while a scenario
// with no radio override keeps the profile's latencies.
func TestFig8RadiosTransitionInstantly(t *testing.T) {
	o := Options{Duration: 5 * time.Second, Seeds: 1}.normalized()
	fig8 := catalogSweep(t, "fig8")
	for _, tc := range []struct {
		name    string
		sc      Scenario
		instant bool
	}{
		{"fig8", fig8.scenario(o, fig8.variants[0], fig8.xs[0], 1), true},
		{"profile", smokeScenario(DTSSS, 1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := BuildWith(nil, tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range s.Tree.AppendMembers(nil) {
				cfg := s.Nodes[id].Radio.Config()
				if instant := cfg.TurnOnDelay == 0 && cfg.TurnOffDelay == 0; instant != tc.instant {
					t.Fatalf("member %d: TurnOnDelay %v, TurnOffDelay %v; want instantaneous = %v",
						id, cfg.TurnOnDelay, cfg.TurnOffDelay, tc.instant)
				}
			}
		})
	}
}
