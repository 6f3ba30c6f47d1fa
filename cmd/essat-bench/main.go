// Command essat-bench regenerates the data behind every figure of the
// paper's evaluation (Figures 2-9 plus the §4.2.3 overhead measurement)
// and prints each as an aligned text table. With -benchjson it also
// records simulator throughput (wall time, events/sec, simulated
// seconds/sec) per figure and for the whole suite, the format behind the
// checked-in BENCH_*.json files (see BENCHMARKS.md).
//
// Examples:
//
//	essat-bench                            # every paper figure, quick setting
//	essat-bench -paper                     # the paper's full 200s × 5-seed setting
//	essat-bench -fig 3 -fig 6              # just Figures 3 and 6
//	essat-bench -ablations                 # the figures plus the ablation and robustness studies
//	essat-bench -parallel 8                # bound the worker pool at 8
//	essat-bench -benchjson BENCH_after.json -scale testdata/large.json
//	essat-bench -fig 3 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/essat/essat"
)

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }

func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// figBench is one figure's throughput record in the -benchjson output.
// AllocsPerRun and BytesPerRun are process-wide heap-allocation deltas
// (runtime.MemStats Mallocs / TotalAlloc) divided by the figure's run
// count — the number the arena work drives down.
type figBench struct {
	ID           string  `json:"id"`
	WallSeconds  float64 `json:"wall_seconds"`
	Runs         int     `json:"runs"`
	Events       uint64  `json:"events"`
	SimSeconds   float64 `json:"sim_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimSecPerSec float64 `json:"sim_seconds_per_sec"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
}

// scaleBench records a scale-tier scenario's throughput: one timed run,
// with the deterministic Build stage (topology spatial hash, flood tree,
// per-node stacks) timed separately from the event-loop drain, the live
// heap that run leaves per node, and a repeated-spec sweep measuring
// steady-state allocations per run.
type scaleBench struct {
	Scenario     string  `json:"scenario"`
	Nodes        int     `json:"nodes"`
	TreeSize     int     `json:"tree_size"`
	BuildSeconds float64 `json:"build_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	Events       uint64  `json:"events"`
	SimSeconds   float64 `json:"sim_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimSecPerSec float64 `json:"sim_seconds_per_sec"`
	// LiveHeapBytesPerNode is the heap still live after the timed run
	// (garbage collected, simulation reachable) minus the heap before
	// its Build, divided by the deployed node count.
	LiveHeapBytesPerNode float64 `json:"live_heap_bytes_per_node"`
	SweepRuns            int     `json:"sweep_runs"`
	AllocsPerRun         float64 `json:"allocs_per_run"`
	BytesPerRun          float64 `json:"bytes_per_run"`
}

// benchReport is the top-level -benchjson document.
type benchReport struct {
	GoVersion   string      `json:"go_version"`
	NumCPU      int         `json:"num_cpu"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Parallelism int         `json:"parallelism"` // effective worker bound (GOMAXPROCS when -parallel is 0)
	DurationSec float64     `json:"run_duration_seconds"`
	Seeds       int         `json:"seeds"`
	Nodes       int         `json:"nodes"`
	Figures     []figBench  `json:"figures"`
	Scale       *scaleBench `json:"scale,omitempty"`
	Huge        *scaleBench `json:"huge,omitempty"`
	Total       figBench    `json:"total"`
}

// memCounters snapshots the process's cumulative heap-allocation
// counters (count and bytes). Both are monotonic, so deltas across a
// workload are exact regardless of garbage collection.
func memCounters() (mallocs, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

func main() {
	var figs figList
	var (
		paper    = flag.Bool("paper", false, "use the paper's full setting (200s runs, 5 seeds) instead of the quick one")
		duration = flag.Duration("duration", 0, "override run duration")
		seeds    = flag.Int("seeds", 0, "override seeds per point")
		parallel = flag.Int("parallel", 0, "max concurrent simulation runs (0 = GOMAXPROCS)")
		topo     = flag.String("topology", "", "topology generator for every run (empty = the paper's uniform placement; see essat-sim -list)")
		channel  = flag.String("channel", "", "channel propagation model for every run (empty = the paper's unit disc; see essat-sim -list)")
		radioPr  = flag.String("radio", "", "radio energy profile for every run (empty = the paper's cost model; see essat-sim -list)")
		seed     = flag.Int64("seed", 0, "base seed; every point runs seeds seed..seed+seeds-1 (0 = 1, the paper's range)")
		outJSON  = flag.String("benchjson", "", "write a throughput report (wall time, events/sec, sim-seconds/sec) to this file")
		scale    = flag.String("scale", "", "also run this scenario spec once (e.g. testdata/large.json) and record a 'scale' section in the report")
		huge     = flag.String("huge", "", "also run this 10k-node scenario spec (e.g. testdata/huge.json) and record a 'huge' section in the report")
		sweep    = flag.Int("sweep", 5, "repeated-spec sweep length for the -scale/-huge sections (steady-state allocs/run measurement)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
		audit    = flag.Bool("audit", false, "run every scenario under the cross-layer invariant auditor (results unchanged; violations abort)")
	)
	ablations := flag.Bool("ablations", false, "also run the ablation and robustness studies")
	flag.Var(&figs, "fig", "figure to regenerate by catalog ID (see essat-sim -list; '3' is short for 'fig3'); repeatable, default every paper figure")
	flag.Parse()

	o := essat.QuickOptions()
	if *paper {
		o = essat.PaperOptions()
	}
	if *duration > 0 {
		o.Duration = *duration
	}
	if *seeds > 0 {
		o.Seeds = *seeds
	}
	o.Parallelism = *parallel
	o.Topology = *topo
	o.Channel = *channel
	o.RadioProfile = *radioPr
	o.BaseSeed = *seed
	o.Audit = *audit

	selected, err := selectFigures(figs, *ablations)
	if err != nil {
		fatal(err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	report := benchReport{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: o.EffectiveParallelism(),
		DurationSec: o.Duration.Seconds(),
		Seeds:       o.Seeds,
		Nodes:       o.Nodes,
	}

	start := time.Now()
	for _, fi := range selected {
		m0, b0 := memCounters()
		figStart := time.Now()
		fig, err := fi.Run(o)
		if err != nil {
			fatal(err)
		}
		fb := throughput(fig, time.Since(figStart))
		m1, b1 := memCounters()
		if fb.Runs > 0 {
			fb.AllocsPerRun = float64(m1-m0) / float64(fb.Runs)
			fb.BytesPerRun = float64(b1-b0) / float64(fb.Runs)
		}
		report.Figures = append(report.Figures, fb)
		fig.Fprint(os.Stdout)
		fmt.Println()
	}
	wall := time.Since(start)
	fmt.Printf("total wall time: %v\n", wall.Round(time.Second))

	if *scale != "" {
		sb, err := runScale(*scale, *sweep)
		if err != nil {
			fatal(err)
		}
		report.Scale = sb
		fmt.Printf("scale tier (%s): %d nodes, build %.2fs, run %.2fs, %.0f events/sec, %.0f live heap B/node, %.0f allocs/run over %d sweep runs\n",
			sb.Scenario, sb.Nodes, sb.BuildSeconds, sb.RunSeconds, sb.EventsPerSec, sb.LiveHeapBytesPerNode, sb.AllocsPerRun, sb.SweepRuns)
	}
	if *huge != "" {
		sb, err := runScale(*huge, *sweep)
		if err != nil {
			fatal(err)
		}
		report.Huge = sb
		fmt.Printf("huge tier (%s): %d nodes, build %.2fs, run %.2fs, %.0f events/sec, %.0f live heap B/node, %.0f allocs/run over %d sweep runs\n",
			sb.Scenario, sb.Nodes, sb.BuildSeconds, sb.RunSeconds, sb.EventsPerSec, sb.LiveHeapBytesPerNode, sb.AllocsPerRun, sb.SweepRuns)
	}

	if *outJSON != "" {
		report.Total = figBench{ID: "total", WallSeconds: wall.Seconds()}
		var totalAllocs, totalBytes float64
		for _, fb := range report.Figures {
			report.Total.Runs += fb.Runs
			report.Total.Events += fb.Events
			report.Total.SimSeconds += fb.SimSeconds
			totalAllocs += fb.AllocsPerRun * float64(fb.Runs)
			totalBytes += fb.BytesPerRun * float64(fb.Runs)
		}
		report.Total.EventsPerSec = float64(report.Total.Events) / wall.Seconds()
		report.Total.SimSecPerSec = report.Total.SimSeconds / wall.Seconds()
		if report.Total.Runs > 0 {
			report.Total.AllocsPerRun = totalAllocs / float64(report.Total.Runs)
			report.Total.BytesPerRun = totalBytes / float64(report.Total.Runs)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*outJSON, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("throughput report written to %s\n", *outJSON)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

// selectFigures resolves -fig IDs against essat.FigureCatalog, accepting
// "3" for "fig3"; with no IDs it selects every paper figure. With
// studies it appends the catalog's ablation and robustness studies.
func selectFigures(ids []string, studies bool) ([]essat.FigureInfo, error) {
	catalog := essat.FigureCatalog()
	var out []essat.FigureInfo
	for _, id := range ids {
		i := slices.IndexFunc(catalog, func(fi essat.FigureInfo) bool { return fi.ID == id || fi.ID == "fig"+id })
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q (see essat-sim -list)", id)
		}
		out = append(out, catalog[i])
	}
	for _, fi := range catalog {
		if (len(ids) == 0 && !fi.Study) || (studies && fi.Study) {
			out = append(out, fi)
		}
	}
	return out, nil
}

func fatal(err error) {
	// os.Exit skips deferred handlers; flush any active CPU profile so a
	// late error does not truncate -cpuprofile output (no-op otherwise).
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "essat-bench:", err)
	os.Exit(1)
}

// runScale executes a scale-tier scenario once, timing the build stage
// (topology, tree, per-node stacks) separately from the event-loop
// drain — the same workload as the repo's BenchmarkLargeRun /
// BenchmarkHugeRun — then repeats the identical spec sweepRuns times on
// the same arena (the first, timed run warms it), recording
// steady-state heap allocations per run.
func runScale(path string, sweepRuns int) (*scaleBench, error) {
	spec, err := essat.LoadSpec(path)
	if err != nil {
		return nil, err
	}
	sc, err := spec.Scenario()
	if err != nil {
		return nil, err
	}
	a := essat.NewArenaWithCache(essat.NewDeployCache(0))
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	buildStart := time.Now()
	s, err := essat.BuildWith(a, sc)
	if err != nil {
		return nil, err
	}
	buildWall := time.Since(buildStart)
	runStart := time.Now()
	s.Simulate()
	res := s.Collect()
	runWall := time.Since(runStart)
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	runtime.KeepAlive(s)
	sb := &scaleBench{
		Scenario:     path,
		Nodes:        sc.Topology.NumNodes,
		TreeSize:     res.TreeSize,
		BuildSeconds: buildWall.Seconds(),
		RunSeconds:   runWall.Seconds(),
		Events:       res.Events,
		SimSeconds:   sc.Duration.Seconds(),
		EventsPerSec: float64(res.Events) / runWall.Seconds(),
		SimSecPerSec: sc.Duration.Seconds() / runWall.Seconds(),

		LiveHeapBytesPerNode: float64(int64(heap1.HeapAlloc)-int64(heap0.HeapAlloc)) / float64(sc.Topology.NumNodes),
	}
	if sweepRuns > 0 {
		m0, b0 := memCounters()
		for i := 0; i < sweepRuns; i++ {
			if _, err := essat.RunWith(a, sc); err != nil {
				return nil, err
			}
		}
		m1, b1 := memCounters()
		sb.SweepRuns = sweepRuns
		sb.AllocsPerRun = float64(m1-m0) / float64(sweepRuns)
		sb.BytesPerRun = float64(b1-b0) / float64(sweepRuns)
	}
	return sb, nil
}

// throughput turns one figure's work totals and wall time into its
// bench record.
func throughput(fig *essat.Figure, wall time.Duration) figBench {
	simSec := fig.SimTime.Seconds()
	return figBench{
		ID:           fig.ID,
		WallSeconds:  wall.Seconds(),
		Runs:         fig.Runs,
		Events:       fig.Events,
		SimSeconds:   simSec,
		EventsPerSec: float64(fig.Events) / wall.Seconds(),
		SimSecPerSec: simSec / wall.Seconds(),
	}
}
