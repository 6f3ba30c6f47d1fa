package stats

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
)

func sinkSpecs() []query.Spec {
	return []query.Spec{
		{ID: 1, Period: time.Second, Phase: 0, Class: 1},
		{ID: 2, Period: 2 * time.Second, Phase: 500 * time.Millisecond, Class: 2},
	}
}

func TestRootSinkLatencyIsMaxArrival(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 0, 10*time.Second)
	s.ReportArrived(1, 0, 30*time.Millisecond, 1)
	s.ReportArrived(1, 0, 80*time.Millisecond, 3)
	s.ReportArrived(1, 0, 50*time.Millisecond, 2)
	by := map[int]DurationStats{}
	s.Summarize(by)
	if got := by[1]; got.N != 1 || got.Max != 80*time.Millisecond {
		t.Fatalf("class 1 = %+v, want one latency of 80ms (max arrival)", got)
	}
}

func TestRootSinkGroupsByClass(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 0, 10*time.Second)
	s.ReportArrived(1, 0, 10*time.Millisecond, 1)
	s.ReportArrived(2, 0, 20*time.Millisecond, 1)
	by := map[int]DurationStats{}
	all := s.Summarize(by)
	if len(by) != 2 || by[1].N != 1 || by[1].Max != 10*time.Millisecond || by[2].N != 1 || by[2].Max != 20*time.Millisecond {
		t.Fatalf("by class = %+v", by)
	}
	if all.N != 2 || all.Max != 20*time.Millisecond {
		t.Fatalf("Summarize() = %+v, want 2 latencies up to 20ms", all)
	}
}

func TestRootSinkMeasureFromExcludesWarmup(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 5*time.Second, 10*time.Second)
	s.ReportArrived(1, 2, 40*time.Millisecond, 1) // interval start 2s < 5s
	s.ReportArrived(1, 7, 40*time.Millisecond, 1) // interval start 7s >= 5s
	if got := len(s.Latencies()); got != 1 {
		t.Fatalf("latencies = %d, want 1 (warm-up excluded)", got)
	}
}

// closedIntervals returns the number of intervals the root closed.
func closedIntervals(s *RootSink) int {
	n := 0
	for _, qr := range s.queries {
		for _, ir := range qr.intervals {
			if ir.closed {
				n++
			}
		}
	}
	return n
}

func TestRootSinkCoverage(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 0, 10*time.Second)
	s.IntervalClosed(1, 0, 100*time.Millisecond, 10)
	s.IntervalClosed(1, 1, 100*time.Millisecond, 20)
	if got := s.MeanCoverage(); got != 15 {
		t.Fatalf("MeanCoverage = %v, want 15", got)
	}
	if got := closedIntervals(s); got != 2 {
		t.Fatalf("closed intervals = %d, want 2", got)
	}
}

func TestRootSinkUnknownQueryIgnored(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 0, 10*time.Second)
	s.ReportArrived(99, 0, time.Millisecond, 1)
	s.IntervalClosed(99, 0, time.Millisecond, 1)
	if len(s.Latencies()) != 0 || closedIntervals(s) != 0 {
		t.Fatal("unknown query leaked into metrics")
	}
}

// TestRootSinkAggregatesInQueryIntervalOrder: aggregation follows
// (query ID, interval) order whatever the spec order and arrival order,
// and negative intervals are ignored.
func TestRootSinkAggregatesInQueryIntervalOrder(t *testing.T) {
	specs := sinkSpecs()
	s := NewRootSink(nil, []query.Spec{specs[1], specs[0]}, 0, 10*time.Second)
	s.ReportArrived(2, 1, 4*time.Millisecond, 1)
	s.ReportArrived(1, 3, 3*time.Millisecond, 1)
	s.ReportArrived(2, 0, 5*time.Millisecond, 1)
	s.ReportArrived(1, 0, 1*time.Millisecond, 1)
	s.ReportArrived(1, -1, 9*time.Millisecond, 1)
	got := s.Latencies()
	want := []time.Duration{1 * time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond, 4 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies = %v, want %v", got, want)
		}
	}
}

// TestRootSinkReserve: a sink sized for the run records every interval
// that starts before the run ends without growing, and an interval past
// the reservation grows its own query's slice without overwriting the
// next query's share of the backing array.
func TestRootSinkReserve(t *testing.T) {
	s := NewRootSink(nil, sinkSpecs(), 0, 4*time.Second) // query 1: intervals 0..3; query 2: 0..1
	if c1, c2 := cap(s.queries[0].intervals), cap(s.queries[1].intervals); c1 != 4 || c2 != 2 {
		t.Fatalf("reserved capacities (%d, %d), want (4, 2)", c1, c2)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.ReportArrived(1, 3, time.Millisecond, 1)
		s.ReportArrived(2, 1, time.Millisecond, 1)
	}); allocs != 0 {
		t.Fatalf("recording reserved intervals allocated %v times", allocs)
	}
	s.ReportArrived(2, 0, 7*time.Millisecond, 1)
	s.ReportArrived(1, 5, 9*time.Millisecond, 1) // past the reservation
	want := []time.Duration{time.Millisecond, 9 * time.Millisecond, 7 * time.Millisecond, time.Millisecond}
	got := s.Latencies()
	if len(got) != len(want) {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies = %v, want %v", got, want)
		}
	}
}

// TestRootSinkSummarize: Summarize agrees with SummarizeDurations over
// all latencies and over each class's, pools the queries that share a
// class, leaves out a class whose intervals all lost their data, and on
// a warm arena allocates nothing but the map's entries.
func TestRootSinkSummarize(t *testing.T) {
	specs := []query.Spec{
		{ID: 1, Period: time.Second, Class: 1},
		{ID: 2, Period: time.Second, Class: 2},
		{ID: 3, Period: time.Second, Class: 1},
		{ID: 4, Period: time.Second, Class: 3}, // never reports
	}
	eng := sim.New(1)
	eng.SetArena(sim.NewArena())
	record := func() *RootSink {
		eng.Reset(1)
		s := NewRootSink(eng, specs, 0, 10*time.Second)
		for k, l := range []time.Duration{9, 2, 7} {
			s.ReportArrived(1, k, l*time.Millisecond, 1)
		}
		s.ReportArrived(2, 0, 4*time.Millisecond, 1)
		for k, l := range []time.Duration{5, 1} {
			s.ReportArrived(3, k, l*time.Millisecond, 1)
		}
		return s
	}
	ms := func(ls ...time.Duration) []time.Duration {
		for i := range ls {
			ls[i] *= time.Millisecond
		}
		return ls
	}
	by := map[int]DurationStats{}
	all := record().Summarize(by)
	if want := SummarizeDurations(ms(9, 2, 7, 4, 5, 1)); all != want {
		t.Errorf("all = %+v, want %+v", all, want)
	}
	want := map[int]DurationStats{
		1: SummarizeDurations(ms(9, 2, 7, 5, 1)),
		2: SummarizeDurations(ms(4)),
	}
	if len(by) != len(want) || by[1] != want[1] || by[2] != want[2] {
		t.Errorf("by class = %+v, want %+v", by, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { record().Summarize(by) }); allocs != 0 {
		t.Errorf("a warm sink's Summarize allocates %.0f times, want 0", allocs)
	}
}
