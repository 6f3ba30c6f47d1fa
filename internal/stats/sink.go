package stats

import (
	"sort"
	"time"

	"github.com/essat/essat/internal/query"
)

// intervalRec tracks one query interval as seen from the root.
type intervalRec struct {
	lastArrival time.Duration // max report latency observed (completion time)
	coverage    int           // coverage at close (root aggregate)
	closed      bool
}

// queryRec accumulates one query's root-side observations.
type queryRec struct {
	spec      query.Spec
	intervals map[int]*intervalRec
}

// RootSink records per-report and per-interval observations at the tree
// root. Query latency follows the paper's definition — the maximum time
// for any source's data to reach the root — measured per interval as the
// latency of the last report arriving for that interval, then averaged.
type RootSink struct {
	queries map[query.ID]*queryRec
	// MeasureFrom discards intervals whose nominal start precedes this
	// time (warm-up exclusion).
	MeasureFrom time.Duration
}

var (
	_ query.Sink = (*RootSink)(nil)
	_ Sink       = (*RootSink)(nil)
)

// Name implements Sink; the root recorder registers as SinkRoot.
func (s *RootSink) Name() string { return SinkRoot }

// NodeDone implements Sink. The root recorder observes only root-side
// report/interval hooks; per-node accounting flows to other sinks.
func (s *RootSink) NodeDone(NodeSummary) {}

// Finish implements Sink. The root recorder feeds the legacy Result
// fields (latency summaries, coverage) rather than emitting a record,
// so default runs serialize exactly as they did before the registry
// existed.
func (s *RootSink) Finish(RunMeta) *Record { return nil }

// NewRootSink creates a sink for the given query specs.
func NewRootSink(specs []query.Spec) *RootSink {
	s := &RootSink{queries: make(map[query.ID]*queryRec)}
	for _, spec := range specs {
		s.queries[spec.ID] = &queryRec{spec: spec, intervals: make(map[int]*intervalRec)}
	}
	return s
}

func (s *RootSink) rec(q query.ID, k int) (*queryRec, *intervalRec, bool) {
	qr, ok := s.queries[q]
	if !ok {
		return nil, nil, false
	}
	if qr.spec.IntervalStart(k) < s.MeasureFrom {
		return qr, nil, false
	}
	ir, ok := qr.intervals[k]
	if !ok {
		ir = &intervalRec{}
		qr.intervals[k] = ir
	}
	return qr, ir, true
}

// ReportArrived implements query.Sink.
func (s *RootSink) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	_, ir, ok := s.rec(q, k)
	if !ok {
		return
	}
	if latency > ir.lastArrival {
		ir.lastArrival = latency
	}
}

// IntervalClosed implements query.Sink.
func (s *RootSink) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	_, ir, ok := s.rec(q, k)
	if !ok {
		return
	}
	ir.closed = true
	ir.coverage = coverage
}

// sortedQueries returns the query records in ID order, and forEach
// visits one query's intervals in index order. Aggregation must not
// follow map order: float accumulation and slice order would then vary
// between identical runs.
func (s *RootSink) sortedQueries() []*queryRec {
	out := make([]*queryRec, 0, len(s.queries))
	for _, qr := range s.queries {
		out = append(out, qr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].spec.ID < out[j].spec.ID })
	return out
}

func (qr *queryRec) forEach(fn func(*intervalRec)) {
	ks := make([]int, 0, len(qr.intervals))
	for k := range qr.intervals {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		fn(qr.intervals[k])
	}
}

// LatencyByClass returns per-interval completion latencies grouped by
// query class. Intervals with no arrivals at all (total data loss) are
// skipped.
func (s *RootSink) LatencyByClass() map[int][]time.Duration {
	out := make(map[int][]time.Duration)
	for _, qr := range s.sortedQueries() {
		qr := qr
		qr.forEach(func(ir *intervalRec) {
			if ir.lastArrival > 0 {
				out[qr.spec.Class] = append(out[qr.spec.Class], ir.lastArrival)
			}
		})
	}
	return out
}

// Latencies returns all per-interval completion latencies.
func (s *RootSink) Latencies() []time.Duration {
	var out []time.Duration
	for _, qr := range s.sortedQueries() {
		qr.forEach(func(ir *intervalRec) {
			if ir.lastArrival > 0 {
				out = append(out, ir.lastArrival)
			}
		})
	}
	return out
}

// MeanCoverage returns the average root coverage of closed intervals:
// how many source samples the root's aggregate folded in per interval.
func (s *RootSink) MeanCoverage() float64 {
	var w Welford
	for _, qr := range s.sortedQueries() {
		qr.forEach(func(ir *intervalRec) {
			if ir.closed {
				w.Add(float64(ir.coverage))
			}
		})
	}
	return w.Mean()
}
