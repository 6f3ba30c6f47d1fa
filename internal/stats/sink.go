package stats

import (
	"cmp"
	"slices"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
)

// intervalRec tracks one query interval as seen from the root.
type intervalRec struct {
	lastArrival time.Duration // max report latency observed (completion time)
	coverage    int           // coverage at close (root aggregate)
	closed      bool
}

// queryRec accumulates one query's root-side observations. intervals
// is indexed by interval number; an entry the root never heard about
// stays zero, neither closed nor carrying a latency.
type queryRec struct {
	spec      query.Spec
	intervals []intervalRec
}

// RootSink records per-report and per-interval observations at the tree
// root. Query latency follows the paper's definition — the maximum time
// for any source's data to reach the root — measured per interval as the
// latency of the last report arriving for that interval, then averaged.
// It is not a listed Sink and emits no record: every run's observer
// calls it, and the run's Result reads latency and coverage from it.
//
// A sink built on an engine with an arena takes its tables and its
// summary scratch from that arena, so it is valid until the engine's
// next Reset.
type RootSink struct {
	eng *sim.Engine
	// queries is sorted by query ID at construction (agents refuse
	// duplicate IDs). Aggregation walks it in (query ID, interval)
	// order, so float accumulation and slice order are the same in
	// every identical run.
	queries []queryRec
	// measureFrom discards intervals whose nominal start precedes this
	// time (warm-up exclusion).
	measureFrom time.Duration
}

var _ query.Sink = (*RootSink)(nil)

// NewRootSink creates a sink for the given query specs over a run of
// the given duration, discarding intervals that start before
// measureFrom. Its memory comes from eng's arena; a nil eng, or one
// without an arena, takes it from the heap.
func NewRootSink(eng *sim.Engine, specs []query.Spec, measureFrom, duration time.Duration) *RootSink {
	s := sim.ArenaGrab[RootSink](eng, "stats.rootsink")
	*s = RootSink{
		eng:         eng,
		queries:     sim.ArenaSlice[queryRec](eng, "stats.root.queries", len(specs)),
		measureFrom: measureFrom,
	}
	for i, spec := range specs {
		s.queries[i].spec = spec
	}
	slices.SortFunc(s.queries, func(a, b queryRec) int { return cmp.Compare(a.spec.ID, b.spec.ID) })
	s.reserve(duration)
	return s
}

// reserve sizes every query's interval slice for a run of the given
// duration, in one backing array: ⌈(duration−φ)/P⌉ intervals start
// before the run ends. Each slice is capped at its share, so rec's
// append still grows one past it safely.
func (s *RootSink) reserve(duration time.Duration) {
	count := func(sp query.Spec) int {
		if sp.Period <= 0 || duration <= sp.Phase {
			return 0
		}
		return int((duration - sp.Phase + sp.Period - 1) / sp.Period)
	}
	total := 0
	for _, qr := range s.queries {
		total += count(qr.spec)
	}
	all := sim.ArenaSlice[intervalRec](s.eng, "stats.root.intervals", total)
	for i := range s.queries {
		n := count(s.queries[i].spec)
		s.queries[i].intervals, all = all[:0:n], all[n:]
	}
}

// rec returns the record of query q's interval k, growing the query's
// interval slice to reach it, or nil for an unknown query, a negative
// interval, or one that starts before measureFrom.
func (s *RootSink) rec(q query.ID, k int) *intervalRec {
	i, ok := slices.BinarySearchFunc(s.queries, q, func(qr queryRec, q query.ID) int { return cmp.Compare(qr.spec.ID, q) })
	if !ok {
		return nil
	}
	qr := &s.queries[i]
	if k < 0 || qr.spec.IntervalStart(k) < s.measureFrom {
		return nil
	}
	for len(qr.intervals) <= k {
		qr.intervals = append(qr.intervals, intervalRec{})
	}
	return &qr.intervals[k]
}

// ReportArrived implements query.Sink.
func (s *RootSink) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	if ir := s.rec(q, k); ir != nil && latency > ir.lastArrival {
		ir.lastArrival = latency
	}
}

// IntervalClosed implements query.Sink.
func (s *RootSink) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	if ir := s.rec(q, k); ir != nil {
		ir.closed = true
		ir.coverage = coverage
	}
}

// Latencies returns all per-interval completion latencies in (query ID,
// interval) order. Intervals with no arrivals at all (total data loss)
// are skipped.
func (s *RootSink) Latencies() []time.Duration {
	return s.appendLatencies(nil, func(query.Spec) bool { return true })
}

// appendLatencies appends the completion latencies of the queries keep
// selects to dst, in (query ID, interval) order.
func (s *RootSink) appendLatencies(dst []time.Duration, keep func(query.Spec) bool) []time.Duration {
	for _, qr := range s.queries {
		if !keep(qr.spec) {
			continue
		}
		for _, ir := range qr.intervals {
			if ir.lastArrival > 0 {
				dst = append(dst, ir.lastArrival)
			}
		}
	}
	return dst
}

// Summarize returns the summary of every per-interval completion
// latency and stores each query class's summary in byClass; a class
// whose intervals all lost their data gets no entry. The sort scratch
// comes from the sink's engine arena, so on a warm arena Summarize
// allocates nothing but byClass's entries.
func (s *RootSink) Summarize(byClass map[int]DurationStats) DurationStats {
	n := 0
	for _, qr := range s.queries {
		for _, ir := range qr.intervals {
			if ir.lastArrival > 0 {
				n++
			}
		}
	}
	scratch := sim.ArenaSlice[time.Duration](s.eng, "stats.root.scratch", n)
	all := s.appendLatencies(scratch[:0], func(query.Spec) bool { return true })
	slices.Sort(all)
	total := summarizeSorted(all)
	for i, qr := range s.queries {
		class := qr.spec.Class
		if slices.ContainsFunc(s.queries[:i], func(p queryRec) bool { return p.spec.Class == class }) {
			continue // summarized with the class's first query
		}
		ls := s.appendLatencies(scratch[:0], func(sp query.Spec) bool { return sp.Class == class })
		if len(ls) > 0 {
			slices.Sort(ls)
			byClass[class] = summarizeSorted(ls)
		}
	}
	return total
}

// MeanCoverage returns the average root coverage of closed intervals:
// how many source samples the root's aggregate folded in per interval.
func (s *RootSink) MeanCoverage() float64 {
	var w Welford
	for _, qr := range s.queries {
		for _, ir := range qr.intervals {
			if ir.closed {
				w.Add(float64(ir.coverage))
			}
		}
	}
	return w.Mean()
}
