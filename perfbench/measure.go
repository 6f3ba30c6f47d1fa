package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/essat/essat/internal/stats"
)

// cpuNow returns the CPU time the process has used since it started:
// user plus system time summed over all threads, so the garbage
// collector's background workers are included. Every time-based metric
// of the benchmark is a difference of two cpuNow readings, because on a
// shared host wall time moves with the CPU time stolen by other tenants.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcReading is a snapshot of the runtime's own GC accounting.
type gcReading struct {
	cpu    float64 // seconds of CPU spent in the GC
	cycles uint64
}

func readGC() gcReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var r gcReading
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.cycles = s[1].Value.Uint64()
	}
	return r
}

// minBeyond is the number of samples a reported tail percentile must
// leave above it.
const minBeyond = 10

// tailLadder lists the percentiles run_tail_ms may report, highest
// first. It starts at p90, which every workload's samples support with
// dozens of samples beyond it (higher percentiles rest on fewer samples
// and moved most between runs), and stops above the median, so a tail
// never reads as p50.
var tailLadder = []float64{0.9, 0.75}

// tailPercentile returns the highest rung of tailLadder that leaves at
// least minBeyond of n samples above its nearest-rank position, and how
// many it leaves. With too few samples for any rung it returns the
// maximum (p = 1) with nothing beyond, so a thin sample is visible in
// the output instead of passing for a tail.
func tailPercentile(n int) (p float64, beyond int) {
	for _, q := range tailLadder {
		rank := int(math.Ceil(float64(n) * q))
		if b := n - rank; b >= minBeyond {
			return q, b
		}
	}
	return 1, 0
}

// summary holds a run's per-operation CPU distribution.
type summary struct {
	n          int
	p50, tail  time.Duration
	tailP      float64
	tailBeyond int
}

// summarize computes the median and the tail of samples through the
// simulator's own nearest-rank percentile.
func summarize(samples []time.Duration) summary {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p, beyond := tailPercentile(len(sorted))
	return summary{
		n:          len(sorted),
		p50:        stats.Percentile(sorted, 0.5),
		tail:       stats.Percentile(sorted, p),
		tailP:      p,
		tailBeyond: beyond,
	}
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return stats.Percentile(sorted, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTicks is the host-wide CPU accounting of /proc/stat.
type cpuTicks struct {
	busy, steal uint64
	ok          bool
}

// readCPUTicks reads the aggregate "cpu" line of /proc/stat. Busy time
// counts user, nice, system, irq, softirq and steal ticks.
func readCPUTicks() cpuTicks {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTicks{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]uint64, 8)
	for i := range v {
		n, err := strconv.ParseUint(fields[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7], ok: true}
}

// hostContext describes the conditions a run was measured under. It is
// printed with every result so a noisy set of runs can be told apart
// from a slow program; none of it is a gated metric.
type hostContext struct {
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	WallS      float64  `json:"wall_s"`
	CPUS       float64  `json:"cpu_s"`
	StealShare *float64 `json:"steal_share"`
}

// hostSince completes the host context of a run that started at wall
// time start with host ticks t0.
func hostSince(start time.Time, t0 cpuTicks) hostContext {
	h := hostContext{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WallS:      time.Since(start).Seconds(),
		CPUS:       cpuNow().Seconds(),
	}
	if t1 := readCPUTicks(); t0.ok && t1.ok && t1.busy > t0.busy {
		share := float64(t1.steal-t0.steal) / float64(t1.busy-t0.busy)
		h.StealShare = &share
	}
	return h
}
