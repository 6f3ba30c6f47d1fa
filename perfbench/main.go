// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the simulator's public Go API, checks every
// run against a reference kept beside it, and prints its metrics as the
// last line of standard output, one JSON object. Every time it reports
// is process CPU time. See README.md for the workloads, the metrics and
// the layer each one attributes.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 44 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// Paths, relative to the repository root the benchmark runs from.
const (
	referencePath = "perfbench/reference.json"
	goldenPath    = "testdata/golden.json"
	spansDir      = ".bench_build"
)

// setupSamples is how many times a run sets its workload up; setup_s is
// the median. The first sample is timed from process start.
const setupSamples = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 44, "CPU seconds of timed passes at the workloads' nominal pass cost")
	traceMode := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	writeRef := fs.Bool("write-reference", false, "regenerate "+referencePath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	golden, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *writeRef {
		if err := writeReference(referencePath, golden, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{seed: *seed, ref: ref, golden: golden}
	start, ticks := time.Now(), readCPUTicks()
	var metrics map[string]metric
	info := map[string]any{"workload": w.name, "seed": *seed, "trace": *traceMode}
	if *traceMode == 0 {
		metrics, err = b.measure(w, time.Duration(*seconds)*time.Second, info)
	} else {
		metrics, err = b.traced(w, info)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if w.crossCheck != nil {
		w.crossCheck(b)
	}
	info["host"] = hostSince(start, ticks)
	info["failures"] = b.problems
	for _, p := range b.problems {
		fmt.Fprintln(stderr, "perfbench: failed:", p)
	}
	line, err := json.Marshal(info)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs the untraced passes of w that budget buys at the
// workload's nominal pass cost (at least one), then sets the workload up
// until there are setupSamples set-up times, and returns the end-to-end
// metrics. The pass count depends on budget alone, so every run on any
// host measures the same work and yields the same number of samples.
func (b *bench) measure(w workload, budget time.Duration, info map[string]any) (map[string]metric, error) {
	passes := int(math.Round(float64(budget) / float64(w.passCPU)))
	if passes < 1 {
		passes = 1
	}
	var setups []time.Duration
	var perPass []passStat
	alloc0 := totalAlloc()
	for k := 0; k < passes; k++ {
		s0 := time.Duration(0) // the first set-up is timed from process start
		if k > 0 {
			runtime.GC() // the previous pass's garbage is not this pass's cost
			s0 = cpuNow()
		}
		runPass, err := w.setup(b, k)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpuNow()-s0)
		e0, o0, w0, t0 := b.events, b.opCPU, time.Now(), readCPUTicks()
		runPass()
		ps := passStat{EventsPerCPUS: float64(b.events-e0) / (b.opCPU - o0).Seconds(), WallS: time.Since(w0).Seconds()}
		if t1 := readCPUTicks(); t0.ok && t1.ok && t1.busy > t0.busy {
			ps.StealShare = float64(t1.steal-t0.steal) / float64(t1.busy-t0.busy)
		}
		perPass = append(perPass, ps)
	}
	alloc := float64(totalAlloc()-alloc0) / float64(passes)
	rss := peakRSSMB()
	for k := passes; len(setups) < setupSamples; k++ {
		runtime.GC()
		s0 := cpuNow()
		if _, err := w.setup(b, k); err != nil {
			return nil, err
		}
		setups = append(setups, cpuNow()-s0)
	}
	sum := summarize(b.samples)
	info["passes"] = perPass
	info["samples"] = sum.n
	info["run_tail_percentile"] = sum.tailP
	info["run_tail_beyond"] = sum.tailBeyond
	info["setup_samples_s"] = seconds(setups)
	return endToEnd(b.events, b.opCPU, sum, median(setups), rss, alloc), nil
}

// passStat is one timed pass's host context.
type passStat struct {
	EventsPerCPUS float64 `json:"events_per_cpu_s"`
	WallS         float64 `json:"wall_s"`
	StealShare    float64 `json:"steal_share"`
}

// endToEnd assembles the end-to-end metrics BENCHMARK.json declares.
func endToEnd(events uint64, opCPU time.Duration, sum summary, setup time.Duration, rssMB, allocBytes float64) map[string]metric {
	return map[string]metric{
		"events_per_cpu_s": {float64(events) / opCPU.Seconds(), "1/s"},
		"run_p50_ms":       {ms(sum.p50), "ms"},
		"run_tail_ms":      {ms(sum.tail), "ms"},
		"setup_s":          {setup.Seconds(), "s"},
		"peak_rss_mb":      {rssMB, "MiB"},
		"alloc_mb":         {allocBytes / (1 << 20), "MiB"},
	}
}

// traced runs pass 0 of w twice, untraced and then traced, and returns
// the per-layer metrics. The traced pass records spans around every call
// into the program and a CPU profile; the calls the per-layer metrics
// need beyond that pass (the audited serve probe, deployment builds, the
// engine microbenchmark) run after it, outside that profile.
func (b *bench) traced(w workload, info map[string]any) (map[string]metric, error) {
	c0 := cpuNow()
	runPass, err := w.setup(b, 0)
	if err != nil {
		return nil, err
	}
	runPass()
	untraced := cpuNow() - c0

	b.tr, b.layers = &tracer{}, &layerStats{}
	var prof bytes.Buffer
	runtime.GC()
	gc0 := readGC()
	c0 = cpuNow()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	runPass, err = w.setup(b, 0)
	if err == nil {
		runPass()
	}
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	tracedCPU := cpuNow() - c0
	gc1 := readGC()

	shares, err := leafShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	// The probe's audited calls get their own profile: the auditor and
	// the sinks run only there.
	var probeProf bytes.Buffer
	if err := pprof.StartCPUProfile(&probeProf); err != nil {
		return nil, err
	}
	err = w.probe(b, 0)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	probeShares, err := leafShares(probeProf.Bytes())
	if err != nil {
		return nil, err
	}
	b.layers.nsPerEvent = map[string]float64{}
	for _, t := range engineTiers {
		b.layers.nsPerEvent[t.name] = engineNsPerEvent(t.pending)
	}
	path := fmt.Sprintf("%s/perfbench-spans-%s.json", spansDir, w.name)
	if err := b.tr.write(path); err != nil {
		return nil, err
	}
	info["spans"] = path
	info["spans_recorded"] = len(b.tr.spans)
	info["cpu_shares"] = shares
	info["probe_cpu_shares"] = probeShares
	info["traced_cpu_s"] = tracedCPU.Seconds()
	info["untraced_cpu_s"] = untraced.Seconds()
	return b.layers.metrics(shares, probeShares, b.tr.selfTimes(), tracedCPU, untraced, gc1, gc0), nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// loadReference reads the reference outputs: reference key → "events:fingerprint".
func loadReference(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref map[string]string
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return ref, nil
}

func loadGolden(path string) (map[string]map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return golden, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
