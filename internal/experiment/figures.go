package experiment

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/stats"
)

// Options scales the figure drivers: the paper uses 200-second runs with
// 5 seeds per point; scaled-down settings keep benchmarks fast.
type Options struct {
	// Duration of each run (paper: 200 s).
	Duration time.Duration
	// Seeds per data point (paper: 5; node placement and query phases
	// vary per seed).
	Seeds int
	// Nodes in the deployment (paper: 80).
	Nodes int
	// Parallelism bounds concurrent runs; 0 means GOMAXPROCS.
	Parallelism int
	// Topology selects a placement generator by registry name; empty
	// keeps the paper's uniform-random deployment. TopologyParams passes
	// the generator's knobs (see internal/topology).
	Topology       string
	TopologyParams map[string]float64
	// Channel selects a propagation model by registry name; empty keeps
	// the paper's unit-disc channel. ChannelParams passes its knobs
	// (see internal/phy).
	Channel       string
	ChannelParams map[string]float64
	// RadioProfile selects a radio energy profile by registry name;
	// empty keeps the paper's cost model (see internal/radio).
	RadioProfile string
	// BaseSeed offsets the per-point seed range: each point runs seeds
	// BaseSeed..BaseSeed+Seeds-1. Zero selects 1, the paper's range.
	BaseSeed int64
	// Audit runs every scenario under the cross-layer invariant auditor
	// (pure observation: results are unchanged).
	Audit bool
}

// PaperOptions reproduces the paper's full experimental setting.
func PaperOptions() Options {
	return Options{Duration: 200 * time.Second, Seeds: 5, Nodes: 80}
}

// QuickOptions is a scaled-down setting for tests and benchmarks: same
// topology scale, shorter runs, fewer seeds.
func QuickOptions() Options {
	return Options{Duration: 40 * time.Second, Seeds: 2, Nodes: 80}
}

// EffectiveParallelism returns the worker-pool bound the figure drivers
// will use for these options: Parallelism, or GOMAXPROCS when unset.
// Benchmarking tools record this rather than re-deriving the default.
func (o Options) EffectiveParallelism() int { return o.normalized().Parallelism }

func (o Options) normalized() Options {
	if o.Duration <= 0 {
		o.Duration = 40 * time.Second
	}
	if o.Seeds <= 0 {
		o.Seeds = 2
	}
	if o.Nodes <= 0 {
		o.Nodes = 80
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.BaseSeed <= 0 {
		o.BaseSeed = 1
	}
	return o
}

// Point is one aggregated data point of a figure series: the mean of a
// metric over N seeds with its 90% confidence half-width. With N < 2
// there is no interval (CI90 is 0), and Fprint prints the sample count
// instead.
type Point struct {
	X    float64
	Mean float64
	CI90 float64
	N    int
}

// Series is a named sequence of points (one line in a figure).
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/figure: a set of series over a labeled
// x-axis, ready to print.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Notes carries reproduction caveats surfaced by the driver.
	Notes []string
	// Work totals the simulation runs behind the figure; it is not
	// printed.
	Work
}

// Work totals the simulation work of a figure's run grid: the runs it
// executed, the events they fired and the simulated time they covered.
type Work struct {
	Runs    int
	Events  uint64
	SimTime time.Duration
}

// Fprint renders the figure as an aligned text table, one row per x value.
func (f *Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	// Claim an interval only where a cell prints one.
	spread := ""
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.N >= 2 {
				spread = ", mean ± 90% CI over seeds"
			}
		}
	}
	fmt.Fprintf(w, "   (y = %s%s)\n", f.YLabel, spread)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %22s", s.Name)
	}
	fmt.Fprintln(w)

	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	for _, x := range sorted {
		fmt.Fprintf(w, "%-12.3g", x)
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					if p.N < 2 {
						cell = fmt.Sprintf("%10.3f %9s", p.Mean, fmt.Sprintf("n=%d", p.N))
					} else {
						cell = fmt.Sprintf("%10.3f ±%8.3f", p.Mean, p.CI90)
					}
					break
				}
			}
			fmt.Fprintf(w, " %22s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// runJob is one scenario execution in a figure's job grid.
type runJob struct {
	build func() Scenario
	res   *Result
	// simTime is the built scenario's duration.
	simTime time.Duration
	err     error
}

// runGrid executes jobs on a bounded worker pool of o.Parallelism
// goroutines (each Run is single-goroutine and independent, so the whole
// (figure, protocol, x, seed) grid parallelizes). Results land in the job
// slots, so downstream aggregation happens in the caller's deterministic
// order regardless of worker count; the first error in job order wins.
func runGrid(o Options, jobs []*runJob) error {
	workers := o.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Each worker owns one arena (engine + memory pools reused across the
	// runs it picks up); all workers share one deployment cache. Job →
	// worker assignment is dynamic and therefore nondeterministic under
	// parallelism, which is safe precisely because every run's result is
	// independent of its arena's history.
	cache := NewDeployCache(0)
	runOne := func(a *Arena, j *runJob) {
		sc := j.build()
		j.simTime = sc.Duration
		if j.res, j.err = RunContextWith(context.Background(), a, sc, Budget{}); j.err == nil {
			j.err = auditErr(j.res)
		}
	}
	if workers <= 1 {
		a := NewArenaWithCache(cache)
		for _, j := range jobs {
			runOne(a, j)
			if j.err != nil {
				return j.err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArenaWithCache(cache)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				runOne(a, jobs[i])
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		if j.err != nil {
			return j.err
		}
	}
	return nil
}

// auditErr surfaces invariant violations from an audited run as a hard
// error: a figure regenerated from a rule-breaking simulation is not
// data. Unaudited runs (Options.Audit off) always pass.
func auditErr(res *Result) error {
	if res.Audit == nil || res.Audit.Total == 0 {
		return nil
	}
	return fmt.Errorf("experiment: %s seed %d: %d invariant violations, first: %s",
		res.Protocol, res.Seed, res.Audit.Total, res.Audit.Violations[0])
}

// runMatrix runs build(i, seed) for every point index i and seed
// BaseSeed..BaseSeed+Seeds-1 through one pooled grid and returns
// results[i] in seed order, with the grid's work totals.
func runMatrix(o Options, n int, build func(i int, seed int64) Scenario) ([][]*Result, Work, error) {
	jobs := make([]*runJob, 0, n*o.Seeds)
	for i := 0; i < n; i++ {
		for s := 0; s < o.Seeds; s++ {
			// Every driver normalized o already, so BaseSeed is >= 1.
			i, seed := i, o.BaseSeed+int64(s)
			jobs = append(jobs, &runJob{build: func() Scenario { return build(i, seed) }})
		}
	}
	if err := runGrid(o, jobs); err != nil {
		return nil, Work{}, err
	}
	var w Work
	out := make([][]*Result, n)
	k := 0
	for i := range out {
		out[i] = make([]*Result, o.Seeds)
		for s := 0; s < o.Seeds; s++ {
			j := jobs[k]
			out[i][s] = j.res
			w.Runs++
			w.Events += j.res.Events
			w.SimTime += j.simTime
			k++
		}
	}
	return out, w, nil
}

// pointFrom aggregates metric over one point's seed-ordered results.
func pointFrom(x float64, results []*Result, metric func(*Result) float64) Point {
	var w stats.Welford
	for _, r := range results {
		w.Add(metric(r))
	}
	return Point{X: x, Mean: w.Mean(), CI90: w.CI90(), N: w.N()}
}

func (o Options) scenario(p Protocol, seed int64) Scenario {
	sc := DefaultScenario(p, seed)
	sc.Duration = o.Duration
	sc.Topology.NumNodes = o.Nodes
	sc.Topology.Generator = o.Topology
	sc.Topology.Params = o.TopologyParams
	sc.Propagation = o.Channel
	sc.PropagationParams = o.ChannelParams
	sc.RadioProfile = o.RadioProfile
	sc.Audit = o.Audit
	if sc.MeasureFrom >= sc.Duration {
		sc.MeasureFrom = sc.Duration / 5
	}
	return sc
}

// FigureInfo is one FigureCatalog entry: a figure's ID and the title
// it prints, whether it is an ablation or robustness study rather than
// one of the paper's figures, and its driver at the default x range.
type FigureInfo struct {
	ID    string
	Title string
	Study bool
	Run   func(Options) (*Figure, error)
}

// The ID and title of every catalog figure, spelled once: each driver
// stamps them on its Figure, and FigureCatalog lists them.
var (
	fig2Info     = FigureInfo{ID: "fig2", Title: "Impact of query deadline on duty cycle and query latency of STS-SS"}
	fig3Info     = FigureInfo{ID: "fig3", Title: "Average duty cycle for three query classes when varying base rate"}
	fig4Info     = FigureInfo{ID: "fig4", Title: "Average duty cycle for three query classes when varying number of queries per class"}
	fig5Info     = FigureInfo{ID: "fig5", Title: "Distribution of duty cycles at different ranks (base rate 5 Hz)"}
	fig6Info     = FigureInfo{ID: "fig6", Title: "Query latency for three query classes when varying base rate"}
	fig7Info     = FigureInfo{ID: "fig7", Title: "Query latency for three query classes when varying the number of queries per class"}
	fig8Info     = FigureInfo{ID: "fig8", Title: "Histogram of sleep intervals (TBE=0, base rate 5 Hz)"}
	fig9Info     = FigureInfo{ID: "fig9", Title: "Impact of break-even time on DTS-SS duty cycle"}
	overheadInfo = FigureInfo{ID: "overhead", Title: "DTS phase-update overhead (§4.2.3; paper: <1 bit per data report)"}

	ablationGuardInfo      = FigureInfo{ID: "ablation-guard", Study: true, Title: "Safe Sleep break-even guard vs naive sleep-any-gap (DTS-SS duty cycle)"}
	ablationBufferingInfo  = FigureInfo{ID: "ablation-buffering", Study: true, Title: "Early-report buffering vs greedy early send (DTS-SS)"}
	ablationTreeInfo       = FigureInfo{ID: "ablation-tree", Study: true, Title: "Setup-flood tree vs idealized BFS tree (DTS-SS duty cycle)"}
	robustnessLossInfo     = FigureInfo{ID: "robustness-loss", Study: true, Title: "Root coverage under transient packet loss (§4.3 maintenance)"}
	robustnessFailuresInfo = FigureInfo{ID: "robustness-failures", Study: true, Title: "DTS-SS under mid-run node failures (§4.3 recovery)"}
	lifetimeInfo           = FigureInfo{ID: "lifetime", Study: true, Title: "Network lifetime with finite batteries (§4.2.1; x: 1=DTS-SS 2=STS-SS 3=NTS-SS 4=SPAN)"}
)

// FigureCatalog lists every figure and study driver this package can
// regenerate, in presentation order: the paper's figures first, then
// the studies.
func FigureCatalog() []FigureInfo {
	with := func(info FigureInfo, run func(Options) (*Figure, error)) FigureInfo {
		info.Run = run
		return info
	}
	return []FigureInfo{
		with(fig2Info, func(o Options) (*Figure, error) { return Fig2Deadline(o, nil) }),
		with(fig3Info, func(o Options) (*Figure, error) { return Fig3DutyVsRate(o, nil) }),
		with(fig4Info, func(o Options) (*Figure, error) { return Fig4DutyVsQueries(o, nil) }),
		with(fig5Info, Fig5DutyByRank),
		with(fig6Info, func(o Options) (*Figure, error) { return Fig6LatencyVsRate(o, nil) }),
		with(fig7Info, func(o Options) (*Figure, error) { return Fig7LatencyVsQueries(o, nil) }),
		with(fig8Info, func(o Options) (*Figure, error) {
			fig, _, err := Fig8SleepHistogram(o)
			return fig, err
		}),
		with(fig9Info, func(o Options) (*Figure, error) { return Fig9BreakEven(o, nil) }),
		with(overheadInfo, func(o Options) (*Figure, error) { return OverheadPhaseUpdates(o, nil) }),
		with(ablationGuardInfo, AblationBreakEvenGuard),
		with(ablationBufferingInfo, AblationBuffering),
		with(ablationTreeInfo, AblationTreeConstruction),
		with(robustnessLossInfo, func(o Options) (*Figure, error) { return RobustnessLoss(o, nil) }),
		with(robustnessFailuresInfo, func(o Options) (*Figure, error) { return RobustnessFailures(o, nil) }),
		with(lifetimeInfo, func(o Options) (*Figure, error) { return Lifetime(o, 0) }),
	}
}

// Fig2Deadline reproduces Figure 2: the impact of the STS query deadline
// on STS-SS duty cycle and query latency, with three queries running.
// The paper observes a knee near D ≈ 0.12 s: below it latency is flat
// while duty falls; above it latency grows linearly with no duty gain.
func Fig2Deadline(o Options, deadlines []time.Duration) (*Figure, error) {
	o = o.normalized()
	if len(deadlines) == 0 {
		for d := 50 * time.Millisecond; d <= 800*time.Millisecond; d += 75 * time.Millisecond {
			deadlines = append(deadlines, d)
		}
	}
	const baseRate = 1.0
	results, work, err := runMatrix(o, len(deadlines), func(i int, seed int64) Scenario {
		sc := o.scenario(STSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, baseRate, 1, 10*time.Second)
		sc.STSDeadline = deadlines[i]
		return sc
	})
	if err != nil {
		return nil, err
	}
	duty := Series{Name: "duty cycle (%)"}
	lat := Series{Name: "query latency (s)"}
	for i, d := range deadlines {
		x := d.Seconds()
		duty.Points = append(duty.Points, pointFrom(x, results[i],
			func(r *Result) float64 { return r.DutyCycle * 100 }))
		lat.Points = append(lat.Points, pointFrom(x, results[i],
			func(r *Result) float64 { return r.Latency.Mean.Seconds() }))
	}
	return &Figure{
		ID:     fig2Info.ID,
		Title:  fig2Info.Title,
		XLabel: "deadline (s)",
		YLabel: "duty cycle (%) / latency (s)",
		Series: []Series{duty, lat},
		Work:   work,
	}, nil
}

// protocolSweep runs every (protocol, x, seed) combination through one
// pooled job grid and aggregates metric per point.
func protocolSweep(o Options, protos []Protocol, xs []float64,
	build func(p Protocol, x float64, seed int64) Scenario,
	metric func(*Result) float64) ([]Series, Work, error) {

	results, work, err := runMatrix(o, len(protos)*len(xs), func(i int, seed int64) Scenario {
		return build(protos[i/len(xs)], xs[i%len(xs)], seed)
	})
	if err != nil {
		return nil, Work{}, err
	}
	var out []Series
	for pi, p := range protos {
		s := Series{Name: string(p)}
		for xi, x := range xs {
			s.Points = append(s.Points, pointFrom(x, results[pi*len(xs)+xi], metric))
		}
		out = append(out, s)
	}
	return out, work, nil
}

// dutyProtocols are the protocols of Figures 3 and 4 (SYNC is omitted
// from the duty figures as in the paper: it is 20% by construction).
var dutyProtocols = []Protocol{DTSSS, STSSS, NTSSS, PSM, SPAN}

// Fig3DutyVsRate reproduces Figure 3: average duty cycle for three query
// classes as the base rate varies from 1 to 5 Hz.
func Fig3DutyVsRate(o Options, rates []float64) (*Figure, error) {
	o = o.normalized()
	if len(rates) == 0 {
		rates = []float64{1, 2, 3, 4, 5}
	}
	series, work, err := protocolSweep(o, dutyProtocols, rates,
		func(p Protocol, rate float64, seed int64) Scenario {
			sc := o.scenario(p, seed)
			rng := rand.New(rand.NewSource(seed * 7919))
			sc.Queries = QueryClasses(rng, rate, 1, 10*time.Second)
			return sc
		},
		func(r *Result) float64 { return r.DutyCycle * 100 })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     fig3Info.ID,
		Title:  fig3Info.Title,
		XLabel: "base rate (Hz)",
		YLabel: "duty cycle (%)",
		Series: series,
		Work:   work,
		Notes:  []string{"SYNC is fixed at 20% duty by construction and omitted, as in the paper"},
	}, nil
}

// Fig4DutyVsQueries reproduces Figure 4: average duty cycle at a fixed
// 0.2 Hz base rate as the number of queries per class grows.
func Fig4DutyVsQueries(o Options, counts []int) (*Figure, error) {
	o = o.normalized()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 6, 8, 10}
	}
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	series, work, err := protocolSweep(o, dutyProtocols, xs,
		func(p Protocol, x float64, seed int64) Scenario {
			sc := o.scenario(p, seed)
			rng := rand.New(rand.NewSource(seed * 104729))
			sc.Queries = QueryClasses(rng, 0.2, int(x), 10*time.Second)
			return sc
		},
		func(r *Result) float64 { return r.DutyCycle * 100 })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     fig4Info.ID,
		Title:  fig4Info.Title,
		XLabel: "queries/class",
		YLabel: "duty cycle (%)",
		Series: series,
		Work:   work,
	}, nil
}

// Fig5DutyByRank reproduces Figure 5: the distribution of duty cycles
// across tree ranks for the three ESSAT protocols at a 5 Hz base rate.
// NTS-SS grows linearly with rank (Eq. 1). STS-SS and DTS-SS rise with
// rank as well (at paper scale from 16.7/16.3% at the leaves to
// 50.8/50.2% at rank 5), so the shape test checks only that NTS-SS's
// slope is steeper than DTS-SS's. A rank that only one seed's tree
// reaches is a single sample and prints without an interval.
func Fig5DutyByRank(o Options) (*Figure, error) {
	o = o.normalized()
	protos := []Protocol{DTSSS, STSSS, NTSSS}
	results, work, err := runMatrix(o, len(protos), func(i int, seed int64) Scenario {
		sc := o.scenario(protos[i], seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, 5, 1, 10*time.Second)
		return sc
	})
	if err != nil {
		return nil, err
	}
	var out []Series
	for pi, p := range protos {
		byRank := make(map[int]*stats.Welford)
		for _, res := range results[pi] {
			for r, d := range res.DutyByRank {
				if byRank[r] == nil {
					byRank[r] = &stats.Welford{}
				}
				byRank[r].Add(d * 100)
			}
		}
		s := Series{Name: string(p)}
		ranks := make([]int, 0, len(byRank))
		for r := range byRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			s.Points = append(s.Points, Point{
				X: float64(r), Mean: byRank[r].Mean(), CI90: byRank[r].CI90(), N: byRank[r].N(),
			})
		}
		out = append(out, s)
	}
	return &Figure{
		ID:     fig5Info.ID,
		Title:  fig5Info.Title,
		XLabel: "rank (0=leaf)",
		YLabel: "duty cycle (%)",
		Series: out,
		Work:   work,
	}, nil
}

// latencyProtocols are the protocols of Figures 6 and 7.
var latencyProtocols = []Protocol{DTSSS, STSSS, NTSSS, PSM, SPAN, SYNC}

// Fig6LatencyVsRate reproduces Figure 6: average query latency as the
// base rate varies (the paper plots it on a log scale).
func Fig6LatencyVsRate(o Options, rates []float64) (*Figure, error) {
	o = o.normalized()
	if len(rates) == 0 {
		rates = []float64{1, 2, 3, 4, 5}
	}
	series, work, err := protocolSweep(o, latencyProtocols, rates,
		func(p Protocol, rate float64, seed int64) Scenario {
			sc := o.scenario(p, seed)
			rng := rand.New(rand.NewSource(seed * 7919))
			sc.Queries = QueryClasses(rng, rate, 1, 10*time.Second)
			return sc
		},
		func(r *Result) float64 { return r.Latency.Mean.Seconds() })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     fig6Info.ID,
		Title:  fig6Info.Title,
		XLabel: "base rate (Hz)",
		YLabel: "query latency (s)",
		Series: series,
		Work:   work,
		Notes:  []string{"SYNC saturates at high rates (queueing): latencies grow with run length"},
	}, nil
}

// Fig7LatencyVsQueries reproduces Figure 7: average query latency at a
// 0.2 Hz base rate as the number of queries per class grows.
func Fig7LatencyVsQueries(o Options, counts []int) (*Figure, error) {
	o = o.normalized()
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 6, 8, 10}
	}
	xs := make([]float64, len(counts))
	for i, c := range counts {
		xs[i] = float64(c)
	}
	series, work, err := protocolSweep(o, latencyProtocols, xs,
		func(p Protocol, x float64, seed int64) Scenario {
			sc := o.scenario(p, seed)
			rng := rand.New(rand.NewSource(seed * 104729))
			sc.Queries = QueryClasses(rng, 0.2, int(x), 10*time.Second)
			return sc
		},
		func(r *Result) float64 { return r.Latency.Mean.Seconds() })
	if err != nil {
		return nil, err
	}
	return &Figure{
		ID:     fig7Info.ID,
		Title:  fig7Info.Title,
		XLabel: "queries/class",
		YLabel: "query latency (s)",
		Series: series,
		Work:   work,
	}, nil
}

// fig8Scenario is one Fig. 8 run: the 5 Hz workload with TBE = 0 and
// instantaneous radio transitions, recording every sleep interval.
func fig8Scenario(o Options, p Protocol, seed int64) Scenario {
	sc := o.scenario(p, seed)
	rng := rand.New(rand.NewSource(seed * 7919))
	sc.Queries = QueryClasses(rng, 5, 1, 10*time.Second)
	sc.SSBreakEven = 0
	sc.RadioCfg = &radio.Config{}
	sc.RecordSleepIntervals = true
	return sc
}

// Fig8SleepHistogram reproduces Figure 8: the histogram of sleep-interval
// lengths with TBE = 0 for the three ESSAT protocols, in 25 ms bins up to
// 200 ms. The paper reads off the fraction of intervals shorter than the
// MICA2 break-even time (2.5 ms): 0.40% for NTS-SS, 0.85% for STS-SS and
// 6.33% for DTS-SS.
func Fig8SleepHistogram(o Options) (*Figure, []float64, error) {
	o = o.normalized()
	protos := []Protocol{DTSSS, STSSS, NTSSS}
	results, work, err := runMatrix(o, len(protos), func(i int, seed int64) Scenario {
		return fig8Scenario(o, protos[i], seed)
	})
	if err != nil {
		return nil, nil, err
	}
	var out []Series
	var below25 []float64
	for pi, p := range protos {
		hist, err := stats.NewHistogram(25*time.Millisecond, 8)
		if err != nil {
			return nil, nil, err
		}
		for _, res := range results[pi] {
			for _, d := range res.SleepIntervals {
				hist.Add(d)
			}
		}
		// Each bin is one count pooled over every seed, not a mean
		// over seeds: a single sample with no interval.
		s := Series{Name: string(p)}
		for i, c := range hist.Counts() {
			s.Points = append(s.Points, Point{
				X:    (time.Duration(i+1) * hist.BinWidth()).Seconds() * 1000,
				Mean: float64(c),
				N:    1,
			})
		}
		out = append(out, s)
		below25 = append(below25, hist.FractionBelow(2500*time.Microsecond)*100)
	}
	fig := &Figure{
		ID:     fig8Info.ID,
		Title:  fig8Info.Title,
		XLabel: "sleep length (ms)",
		YLabel: "count per 25 ms bin, pooled over seeds",
		Series: out,
		Work:   work,
		Notes: []string{fmt.Sprintf("%% of sleeps < 2.5 ms: DTS-SS=%.2f%% STS-SS=%.2f%% NTS-SS=%.2f%% (paper: 6.33 / 0.85 / 0.40)",
			below25[0], below25[1], below25[2])},
	}
	return fig, below25, nil
}

// Fig9BreakEven reproduces Figure 9: DTS-SS duty cycle versus base rate
// for Safe Sleep break-even times of 0, 2.5, 10 and 40 ms (the figure's
// caption says STS-SS but the surrounding text analyzes DTS-SS, the
// protocol most sensitive to TBE; the driver follows the text).
func Fig9BreakEven(o Options, rates []float64) (*Figure, error) {
	o = o.normalized()
	if len(rates) == 0 {
		rates = []float64{1, 2, 3, 4, 5}
	}
	tbes := []time.Duration{0, 2500 * time.Microsecond, 10 * time.Millisecond, 40 * time.Millisecond}
	results, work, err := runMatrix(o, len(tbes)*len(rates), func(i int, seed int64) Scenario {
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, rates[i%len(rates)], 1, 10*time.Second)
		sc.SSBreakEven = tbes[i/len(rates)]
		return sc
	})
	if err != nil {
		return nil, err
	}
	var out []Series
	for ti, tbe := range tbes {
		s := Series{Name: fmt.Sprintf("TBE=%v", tbe)}
		for ri, rate := range rates {
			s.Points = append(s.Points, pointFrom(rate, results[ti*len(rates)+ri],
				func(r *Result) float64 { return r.DutyCycle * 100 }))
		}
		out = append(out, s)
	}
	return &Figure{
		ID:     fig9Info.ID,
		Title:  fig9Info.Title,
		XLabel: "base rate (Hz)",
		YLabel: "duty cycle (%)",
		Series: out,
		Work:   work,
	}, nil
}

// OverheadPhaseUpdates reproduces the §4.2.3 measurement: DTS's phase-
// update overhead in piggybacked bits per data report across query rates
// (the paper reports less than one bit per report).
func OverheadPhaseUpdates(o Options, rates []float64) (*Figure, error) {
	o = o.normalized()
	if len(rates) == 0 {
		rates = []float64{1, 2, 3, 4, 5}
	}
	results, work, err := runMatrix(o, len(rates), func(i int, seed int64) Scenario {
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, rates[i], 1, 10*time.Second)
		return sc
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "DTS-SS phase bits/report"}
	for i, rate := range rates {
		s.Points = append(s.Points, pointFrom(rate, results[i],
			func(r *Result) float64 { return r.PhaseUpdateBitsPerReport }))
	}
	return &Figure{
		ID:     overheadInfo.ID,
		Title:  overheadInfo.Title,
		XLabel: "base rate (Hz)",
		YLabel: "piggybacked bits per data report",
		Series: []Series{s},
		Work:   work,
	}, nil
}
