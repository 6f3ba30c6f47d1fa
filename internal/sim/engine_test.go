package sim

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// drain fires events until the queue is empty and returns how many
// fired.
func drain(e *Engine) uint64 {
	var n uint64
	for e.Step() {
		n++
	}
	return n
}

func TestNewEngineStartsAtZero(t *testing.T) {
	e := New(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndStep(t *testing.T) {
	e := New(1)
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(5*time.Millisecond, func() { fired = append(fired, 2) })

	if !e.Step() {
		t.Fatal("Step() = false, want true")
	}
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", e.Now())
	}
	if !e.Step() {
		t.Fatal("Step() = false, want true")
	}
	if e.Step() {
		t.Fatal("Step() = true on empty queue")
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 1 {
		t.Fatalf("fired = %v, want [2 1]", fired)
	}
}

func TestFIFOOrderingAtSameInstant(t *testing.T) {
	e := New(1)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { fired = append(fired, i) })
	}
	drain(e)
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New(1)
	var at time.Duration
	e.Schedule(3*time.Second, func() {
		e.After(2*time.Second, func() { at = e.Now() })
	})
	drain(e)
	if at != 5*time.Second {
		t.Fatalf("nested After fired at %v, want 5s", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	if n := e.Pending(); n != 0 {
		t.Fatalf("Pending() = %d after Cancel, want 0", n)
	}
	drain(e)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	e := New(1)
	ev := e.Schedule(time.Second, func() {})
	e.Cancel(ev)
	e.Cancel(ev)
	if n := drain(e); n != 0 {
		t.Fatalf("drain fired %d events, want 0", n)
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	for _, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	n := e.Run(2 * time.Second)
	if n != 2 {
		t.Fatalf("Run executed %d events, want 2", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	// The remaining event still fires on a later Run.
	e.Run(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want clock advanced to 10s", e.Now())
	}
}

func TestRunAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New(1)
	e.Run(7 * time.Second)
	if e.Now() != 7*time.Second {
		t.Fatalf("Now() = %v, want 7s", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New(1)
	e.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(500*time.Millisecond, func() {})
	})
	drain(e)
}

func TestNilCallbackPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	e.Schedule(time.Second, nil)
}

func TestEventsScheduledDuringExecution(t *testing.T) {
	e := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	drain(e)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("Now() = %v, want 99ms", e.Now())
	}
}

func TestProcessedCounts(t *testing.T) {
	e := New(1)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	drain(e)
	if e.Processed() != 5 {
		t.Fatalf("Processed() = %d, want 5", e.Processed())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		e := New(seed)
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				jitter := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
				e.After(jitter+time.Microsecond, step)
			}
		}
		e.Schedule(0, step)
		drain(e)
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if i >= len(c) || a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestEventOrderInvariant checks with random schedules that execution
// order is always sorted by (time, insertion order).
func TestEventOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		n := 200
		type rec struct {
			at  time.Duration
			seq int
		}
		scheduled := make([]rec, 0, n)
		var fired []rec
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			r := rec{at: at, seq: i}
			scheduled = append(scheduled, r)
			e.Schedule(at, func() { fired = append(fired, r) })
		}
		drain(e)
		if len(fired) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEventRecycledAfterFire checks that a fired event's struct is reused
// by the next Schedule instead of being garbage.
func TestEventRecycledAfterFire(t *testing.T) {
	e := New(1)
	ev1 := e.Schedule(time.Millisecond, func() {})
	drain(e)
	ev2 := e.Schedule(time.Second, func() {})
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if ev2.At() != time.Second {
		t.Fatalf("recycled event At() = %v, want 1s", ev2.At())
	}
}

// TestEventRecycledAfterCancel checks that canceled events are recycled
// by the next Schedule and fire as the new event.
func TestEventRecycledAfterCancel(t *testing.T) {
	e := New(1)
	ev1 := e.Schedule(time.Millisecond, func() { t.Error("canceled event fired") })
	e.Cancel(ev1)
	drain(e) // discards the canceled event
	fired := false
	ev2 := e.Schedule(time.Second, func() { fired = true })
	if ev1 != ev2 {
		t.Fatal("canceled event was not recycled by the next Schedule")
	}
	drain(e)
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestFIFOOrderingAcrossReuse checks the same-instant FIFO tie-break is
// preserved when the queue is built from recycled Event structs.
func TestFIFOOrderingAcrossReuse(t *testing.T) {
	e := New(1)
	// Populate and drain the freelist.
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	drain(e)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { fired = append(fired, i) })
	}
	// Interleave a cancellation to exercise discard + reuse in one pass.
	ev := e.Schedule(time.Second, func() { t.Error("canceled event fired") })
	e.Cancel(ev)
	drain(e)
	if len(fired) != 10 {
		t.Fatalf("fired %d events, want 10", len(fired))
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("fired[%d] = %d, want %d (FIFO tie-break violated across reuse)", i, v, i)
		}
	}
}

// TestRescheduleInsideCallbackReusesEvent checks the hot-path pattern: a
// self-rescheduling timer runs allocation-free because the struct released
// before the callback is immediately reused by the After inside it.
func TestRescheduleInsideCallbackReusesEvent(t *testing.T) {
	e := New(1)
	count := 0
	var first *Event
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			if ev := e.After(time.Microsecond, tick); ev != first {
				t.Fatalf("tick %d: After returned %p, want the released struct %p", count, ev, first)
			}
		}
	}
	first = e.Schedule(0, tick)
	drain(e)
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if e.made != firstEventBlock || freeLen(e) != firstEventBlock {
		t.Fatalf("engine made %d events and pools %d after drain, want one block of %d (one struct recycled throughout)",
			e.made, freeLen(e), firstEventBlock)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		drain(e)
	}
}

// TestSteadyStateZeroAlloc is the enforcing guard for the freelist's
// zero-alloc property: after warm-up, scheduling and firing events must
// not allocate. (BenchmarkEngineThroughput reports the same property but
// a benchmark cannot fail CI on a regression.)
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := New(1)
	fn := func() {}
	// Warm up the freelist and the queue's backing array.
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	drain(e)
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventSize: an event carries one callback form, a dispatcher and
// its argument (a Schedule'd closure rides as callClosure's argument),
// and no pointer back to its engine, so it is 64 B on 64-bit platforms:
// exactly one size class, where 72 B would fill an 80 B one.
func TestEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Fatalf("sim.Event is %d B, want 64", got)
	}
}

// BenchmarkEngineThroughput measures steady-state event throughput with a
// population of concurrent self-rescheduling timers, the shape of a busy
// simulation. With the event freelist the steady state is allocation-free:
// b.ReportAllocs guards the zero-alloc property.
func BenchmarkEngineThroughput(b *testing.B) {
	const timers = 64
	e := New(1)
	remaining := b.N
	ticks := make([]func(), timers)
	for i := 0; i < timers; i++ {
		i := i
		ticks[i] = func() {
			remaining--
			if remaining > 0 {
				// Deterministic pseudo-jitter keeps the slots shuffled.
				d := time.Duration(1+(remaining*7919)%64) * time.Microsecond
				e.After(d, ticks[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < timers && i < b.N; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, ticks[i])
	}
	drain(e)
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(e.Processed())/b.Elapsed().Seconds(), "events/sec")
	}
}

// BenchmarkEngineDenseWheel measures per-event cost against the pending
// population: 320, 4,000 and 40,000 self-rescheduling timers (about four
// per node at 80, 1,000 and 10,000 nodes), each re-armed after a delay
// drawn log-uniformly from 10 µs to 100 ms, the span between a backoff
// slot and a query period. Such delays crowd the coarse wheel slots, so
// ns/op (one fired event) stays flat across the sub-benchmarks only
// while coarse-slot insertion is O(1).
func BenchmarkEngineDenseWheel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	lo, hi := math.Log(float64(10*time.Microsecond)), math.Log(float64(100*time.Millisecond))
	for i := range delays {
		delays[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	for _, pending := range []int{320, 4_000, 40_000} {
		b.Run(strconv.Itoa(pending), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2)) // same start on every b.N round
			e := New(1)
			next := 0
			var tick func()
			tick = func() {
				next++
				e.After(delays[next&(len(delays)-1)], tick)
			}
			for i := 0; i < pending; i++ {
				e.After(delays[rng.Intn(len(delays))], tick)
			}
			for i := 0; i < pending; i++ { // every timer fires once
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

func BenchmarkTimerWheelChurn(b *testing.B) {
	e := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			e.After(time.Microsecond, tick)
		}
	}
	e.Schedule(0, tick)
	drain(e)
}

// TestPendingCountsLiveEventsOnly is the regression test for Pending():
// it must report live events, not raw queue length — canceled events are
// unlinked eagerly and never counted.
func TestPendingCountsLiveEventsOnly(t *testing.T) {
	e := New(1)
	evs := make([]*Event, 5)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d, want 5", got)
	}
	e.Cancel(evs[1])
	e.Cancel(evs[3])
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after 2 cancels, want 3", got)
	}
	e.Step()
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after a fire, want 2", got)
	}
	// A far-future (level-4) event counts too, and uncounts on cancel.
	far := e.Schedule(5*time.Hour, func() {})
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d with a level-4 event, want 3", got)
	}
	e.Cancel(far)
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending() = %d after a level-4 cancel, want 2", got)
	}
	drain(e)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
}

// TestCancelThenFireSameTick cancels one of several events sharing a
// scheduler tick (sub-tick at differences) and checks the survivors fire
// in exact (at, seq) order.
func TestCancelThenFireSameTick(t *testing.T) {
	e := New(1)
	var fired []int
	// All three land in the same 1024ns tick but differ in at.
	a := e.Schedule(900*time.Nanosecond, func() { fired = append(fired, 0) })
	e.Schedule(200*time.Nanosecond, func() { fired = append(fired, 1) })
	e.Schedule(500*time.Nanosecond, func() { fired = append(fired, 2) })
	_ = a
	e.Cancel(a)
	drain(e)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2] (sub-tick order with mid-slot cancel)", fired)
	}
	if e.Now() != 500*time.Nanosecond {
		t.Fatalf("Now() = %v, want 500ns", e.Now())
	}
}

// TestRescheduleAcrossWheelLevels moves one event between delays that
// live on different wheel levels, up to level 4, and checks it fires
// exactly once, at the final time.
func TestRescheduleAcrossWheelLevels(t *testing.T) {
	e := New(1)
	var firedAt []time.Duration
	ev := e.Schedule(50*time.Microsecond, func() { firedAt = append(firedAt, e.Now()) }) // level 0
	e.RescheduleTo(ev, 10*time.Millisecond)                                              // level 1
	e.RescheduleTo(ev, 5*time.Second)                                                    // level 2
	e.RescheduleTo(ev, 3*time.Hour)                                                      // level 4
	e.RescheduleTo(ev, 30*time.Minute)                                                   // back to level 3
	if ev.At() != 30*time.Minute {
		t.Fatalf("At() = %v after reschedules, want 30m", ev.At())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1 (reschedule must not duplicate)", got)
	}
	drain(e)
	if len(firedAt) != 1 || firedAt[0] != 30*time.Minute {
		t.Fatalf("firedAt = %v, want exactly [30m]", firedAt)
	}
}

// TestRescheduleOrdersAsNewest checks RescheduleTo is equivalent to
// cancel+schedule for FIFO tie-breaks: a rescheduled event fires after
// events already scheduled at its new instant.
func TestRescheduleOrdersAsNewest(t *testing.T) {
	e := New(1)
	var fired []string
	a := e.Schedule(time.Second, func() { fired = append(fired, "a") })
	e.Schedule(time.Second, func() { fired = append(fired, "b") })
	e.RescheduleTo(a, time.Second) // same instant, but now the newest
	drain(e)
	if len(fired) != 2 || fired[0] != "b" || fired[1] != "a" {
		t.Fatalf("fired = %v, want [b a]", fired)
	}
}

// TestRescheduleUnscheduledPanics documents that RescheduleTo is only
// valid on a pending event.
func TestRescheduleUnscheduledPanics(t *testing.T) {
	e := New(1)
	ev := e.Schedule(time.Millisecond, func() {})
	drain(e)
	defer func() {
		if recover() == nil {
			t.Error("RescheduleTo on a fired event did not panic")
		}
	}()
	e.RescheduleTo(ev, time.Second)
}

// TestZeroDelaySelfReschedule chains After(0, ...) callbacks: each must
// fire at the same instant, in scheduling order, without livelocking the
// current tick's slot.
func TestZeroDelaySelfReschedule(t *testing.T) {
	e := New(1)
	e.Schedule(time.Millisecond, func() {}) // move now off zero first
	drain(e)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 500 {
			e.After(0, tick)
		}
	}
	e.After(0, tick)
	drain(e)
	if count != 500 {
		t.Fatalf("count = %d, want 500", count)
	}
	if e.Now() != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms (zero-delay chain must not advance time)", e.Now())
	}
}

// TestLevel4Cascade schedules events past level 3's ~73 min block,
// which wait on level 4, and checks they cascade down the levels and
// fire in order, interleaved correctly with near events scheduled later.
func TestLevel4Cascade(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	times := []time.Duration{
		90 * time.Minute, // level 4 at schedule time
		2 * time.Hour,
		100 * time.Minute,
		time.Second, // near
	}
	for _, at := range times {
		at := at
		e.Schedule(at, record)
	}
	// An event scheduled from a callback close to a cascaded one must
	// still order correctly.
	e.Schedule(89*time.Minute, func() {
		e.After(time.Minute+time.Millisecond, record) // 90min+1ms
	})
	drain(e)
	want := []time.Duration{
		time.Second,
		90 * time.Minute,
		90*time.Minute + time.Millisecond,
		100 * time.Minute,
		2 * time.Hour,
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestCancelOnLevel4 cancels events parked on level 4, 2 h to 7 h out,
// including the earliest, and checks the survivors still fire.
func TestCancelOnLevel4(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	evs := make([]*Event, 6)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(i+2)*time.Hour, record)
	}
	e.Cancel(evs[0]) // earliest
	e.Cancel(evs[3]) // interior
	e.Cancel(evs[5]) // last
	drain(e)
	want := []time.Duration{3 * time.Hour, 4 * time.Hour, 6 * time.Hour}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

// TestWheelStress drives a randomized schedule/cancel mix with delays
// spanning wheel levels 0 to 3, and checks execution order against a
// sorted (at, seq) reference.
func TestWheelStress(t *testing.T) {
	g := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		type item struct {
			ev       *Event
			at       time.Duration
			seq      int
			canceled bool
		}
		var items []*item
		var fired []int
		seq := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(10) < 7 || len(items) == 0 {
				mag := time.Duration(1) << uint(rng.Intn(42))
				at := e.Now() + time.Duration(rng.Int63n(int64(mag))) + 1
				it := &item{at: at, seq: seq}
				seq++
				it.ev = e.Schedule(at, func() { fired = append(fired, it.seq) })
				items = append(items, it)
			} else {
				live := make([]*item, 0, len(items))
				for _, it := range items {
					if !it.canceled {
						live = append(live, it)
					}
				}
				if len(live) == 0 {
					continue
				}
				it := live[rng.Intn(len(live))]
				e.Cancel(it.ev)
				it.canceled = true
			}
		}
		drain(e)
		// Expected: live items sorted by (at, seq).
		var want []*item
		for _, it := range items {
			if !it.canceled {
				want = append(want, it)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].at != want[b].at {
				return want[a].at < want[b].at
			}
			return want[a].seq < want[b].seq
		})
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCancelHeavyChurn measures the MAC-exchange shape: timers that
// are armed and then canceled or moved before firing (NAV, ACK waits,
// frozen backoffs). The wheel makes cancel O(1) with no tombstones to
// drag through later pops.
func BenchmarkCancelHeavyChurn(b *testing.B) {
	e := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Arm four exchange timers, move one, cancel three — only the
		// last survives to fire, as in a typical CSMA/CA exchange.
		difs := e.After(50*time.Microsecond, fn)
		backoff := e.After(300*time.Microsecond, fn)
		nav := e.After(500*time.Microsecond, fn)
		ack := e.After(700*time.Microsecond, fn)
		e.RescheduleTo(nav, e.Now()+900*time.Microsecond)
		e.Cancel(difs)
		e.Cancel(backoff)
		e.Cancel(nav)
		_ = ack
		e.Step() // fire the ACK timeout
	}
}

// TestScheduleNearAfterDeadlinePeek is the regression test for the
// cursor-overrun bug: Run's deadline peek of a far-future event must not
// advance the wheel cursor past `until`, or a later Schedule of a nearer
// event lands below the cursor — mis-leveled at best (events fire out of
// order), livelocked in a cascade at worst.
func TestScheduleNearAfterDeadlinePeek(t *testing.T) {
	e := New(1)
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }

	// A far (level-4) event forces the peek to consider moving the
	// cursor to its slot's block.
	e.Schedule(100*time.Minute, record)
	if n := e.Run(time.Millisecond); n != 0 {
		t.Fatalf("Run fired %d events before the deadline, want 0", n)
	}
	// Schedule nearer events after the bounded peek; they must fire
	// first, in time order.
	e.Schedule(2*time.Millisecond, record)
	e.Schedule(90*time.Minute, record)
	done := make(chan uint64, 1)
	go func() { done <- drain(e) }()
	select {
	case n := <-done:
		if n != 3 {
			t.Fatalf("drain fired %d events, want 3", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain livelocked (cursor advanced past now by the deadline peek)")
	}
	want := []time.Duration{2 * time.Millisecond, 90 * time.Minute, 100 * time.Minute}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired[%d] = %v, want %v (order violated)", i, fired[i], want[i])
		}
	}
	// Repeated bounded Runs interleaved with schedules stay consistent.
	e.Schedule(e.Now()+time.Hour, record)
	e.Run(e.Now() + time.Minute)
	e.Schedule(e.Now()+time.Second, record)
	drain(e)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if fired[3] >= fired[4] {
		t.Fatalf("interleaved deadline runs fired out of order: %v", fired[3:])
	}
}

// Differential test: engine vs a naive sorted-list reference, mixing
// bounded Run calls, between-run schedules, cancels, and reschedules
// across wheel levels 0 to 4. Seeds from
// denseSeedsFrom on draw their instants from 64 values 100 ns apart in a
// few windows, so hundreds of events crowd each coarse slot, each tick
// gets several distinct instants in random order plus many ties, and
// the bounded Runs end inside those slots.
func TestDifferentialAgainstSortedModel(t *testing.T) {
	const denseSeedsFrom, seeds = 40, 48
	for seed := int64(0); seed < seeds; seed++ {
		dense := seed >= denseSeedsFrom
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)

		type ref struct {
			at       time.Duration
			seq      uint64
			canceled bool
		}
		var model []*ref // indexed by id
		handles := map[int]*Event{}
		var fired, want []int
		var mseq uint64

		schedule := func(at time.Duration) {
			id := len(model)
			model = append(model, &ref{at: at, seq: mseq})
			mseq++
			handles[id] = e.Schedule(at, func() {
				delete(handles, id)
				fired = append(fired, id)
			})
		}

		randomAt := func() time.Duration {
			if dense {
				windows := [...]time.Duration{0, 300 * time.Microsecond, 70 * time.Millisecond, 20 * time.Second, 80 * time.Minute}
				return e.Now() + windows[rng.Intn(len(windows))] + time.Duration(rng.Intn(64))*100*time.Nanosecond
			}
			mag := time.Duration(1) << uint(rng.Intn(44)) // up to ~4.8h, level 4
			return e.Now() + time.Duration(rng.Int63n(int64(mag)))
		}

		// Run the model forward to `until`, appending fired ids to want.
		// Callbacks schedule nothing, so the events due by until are
		// exactly the live ones with at <= until.
		runModel := func(until time.Duration) {
			var due []int
			for id, r := range model {
				if !r.canceled && r.at <= until {
					due = append(due, id)
				}
			}
			sort.Slice(due, func(a, b int) bool {
				ra, rb := model[due[a]], model[due[b]]
				if ra.at != rb.at {
					return ra.at < rb.at
				}
				return ra.seq < rb.seq
			})
			for _, id := range due {
				model[id].canceled = true // consumed
			}
			want = append(want, due...)
		}

		opsPerRound := 10
		if dense {
			opsPerRound = 300
		}
		for round := 0; round < 30; round++ {
			for op := 0; op < opsPerRound; op++ {
				switch rng.Intn(4) {
				case 0, 1:
					schedule(randomAt())
				case 2: // cancel a random live event
					for id, ev := range handles {
						e.Cancel(ev)
						delete(handles, id)
						model[id].canceled = true
						break
					}
				case 3: // reschedule a random live event
					for id, ev := range handles {
						at := randomAt()
						e.RescheduleTo(ev, at)
						model[id].at = at
						model[id].seq = mseq
						mseq++
						break
					}
				}
			}
			until := e.Now() + time.Duration(rng.Int63n(int64(90*time.Minute)))
			if dense && round%3 != 0 {
				until = e.Now() + time.Duration(rng.Int63n(int64(100*time.Millisecond)))
			}
			e.Run(until)
			runModel(until)
			if len(fired) != len(want) {
				t.Fatalf("seed %d round %d: fired %d events, model fired %d", seed, round, len(fired), len(want))
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("seed %d round %d: fired[%d] = %d, want %d", seed, round, i, fired[i], want[i])
				}
			}
			if e.Pending() != len(handles) {
				t.Fatalf("seed %d round %d: Pending() = %d, want %d", seed, round, e.Pending(), len(handles))
			}
		}
		// Drain everything.
		drain(e)
		runModel(1 << 62)
		if len(fired) != len(want) {
			t.Fatalf("seed %d drain: fired %d events, model fired %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d drain: fired[%d] = %d, want %d", seed, i, fired[i], want[i])
			}
		}
	}
}

// orderModel is a reference model for the adversarial ordering test:
// every event's final (at, seq), with seq numbered exactly as the engine
// numbers schedules and reschedules. An observer checks each pop against
// the model and against the previous pop, so the fired sequence must be
// the sorted (at, seq) order of everything scheduled and not canceled.
type orderModel struct {
	t       *testing.T
	e       *Engine
	seq     uint64
	evs     []orderRef
	handles []*Event
	fired   []int
	// last is the (at, seq) of the latest pop, once popped is set.
	last   orderRef
	popped bool
}

type orderRef struct {
	at    time.Duration
	seq   uint64
	state uint8 // orderLive, orderCanceled, orderFired
}

const (
	orderLive uint8 = iota
	orderCanceled
	orderFired
)

func newOrderModel(t *testing.T) *orderModel {
	m := &orderModel{t: t, e: New(1)}
	m.e.SetObserver(m)
	return m
}

func (m *orderModel) EventFired(at time.Duration, seq uint64) {
	if m.popped && (at < m.last.at || at == m.last.at && seq <= m.last.seq) {
		m.t.Fatalf("pop (%v, %d) after (%v, %d)", at, seq, m.last.at, m.last.seq)
	}
	m.last.at, m.last.seq, m.popped = at, seq, true
}

func (m *orderModel) schedule(at time.Duration) int { return m.scheduleThen(at, nil) }

// scheduleThen schedules an event whose callback, when it fires, runs
// then (if non-nil) after recording the pop.
func (m *orderModel) scheduleThen(at time.Duration, then func()) int {
	id := len(m.evs)
	m.evs = append(m.evs, orderRef{at: at, seq: m.seq})
	m.seq++
	m.handles = append(m.handles, m.e.Schedule(at, func() {
		m.fire(id)
		if then != nil {
			then()
		}
	}))
	return id
}

func (m *orderModel) fire(id int) {
	r := &m.evs[id]
	if r.state != orderLive || r.at != m.last.at || r.seq != m.last.seq || r.at != m.e.Now() {
		m.t.Fatalf("event %d (at %v, seq %d, state %d) fired as pop (%v, %d) at now %v",
			id, r.at, r.seq, r.state, m.last.at, m.last.seq, m.e.Now())
	}
	r.state = orderFired
	m.handles[id] = nil
	m.fired = append(m.fired, id)
}

func (m *orderModel) cancel(id int) {
	if m.evs[id].state != orderLive {
		return
	}
	m.e.Cancel(m.handles[id])
	m.handles[id] = nil
	m.evs[id].state = orderCanceled
}

func (m *orderModel) reschedule(id int, at time.Duration) {
	if m.evs[id].state != orderLive {
		return
	}
	m.e.RescheduleTo(m.handles[id], at)
	m.evs[id].at, m.evs[id].seq = at, m.seq
	m.seq++
}

// check verifies that everything due by until fired and that nothing
// later did.
func (m *orderModel) check(until time.Duration) {
	m.t.Helper()
	live := 0
	for id, r := range m.evs {
		switch {
		case r.state == orderLive && r.at <= until:
			m.t.Fatalf("event %d at %v still pending after Run(%v)", id, r.at, until)
		case r.state == orderFired && r.at > until:
			m.t.Fatalf("event %d at %v fired by Run(%v)", id, r.at, until)
		case r.state == orderLive:
			live++
		}
	}
	if m.e.Pending() != live {
		m.t.Fatalf("Pending() = %d, model has %d live", m.e.Pending(), live)
	}
}

// verifySorted compares the whole fired sequence with the sorted (at,
// seq) order of every event that was not canceled.
func (m *orderModel) verifySorted() {
	m.t.Helper()
	var want []int
	for id, r := range m.evs {
		if r.state != orderCanceled {
			want = append(want, id)
		}
	}
	sort.Slice(want, func(a, b int) bool {
		ra, rb := m.evs[want[a]], m.evs[want[b]]
		if ra.at != rb.at {
			return ra.at < rb.at
		}
		return ra.seq < rb.seq
	})
	if len(m.fired) != len(want) {
		m.t.Fatalf("fired %d events, want %d", len(m.fired), len(want))
	}
	for i := range want {
		if m.fired[i] != want[i] {
			m.t.Fatalf("fired[%d] = event %d, want event %d", i, m.fired[i], want[i])
		}
	}
}

// TestAdversarialCoarseSlotOrder crowds one level-1 slot and one level-2
// slot with tens of thousands of events in descending instant order with
// many identical-instant ties, so every append to those unordered slots
// is out of order. It then cancels and reschedules into and out of them
// (and to and from level 4, past ~73 min), crosses each cascade, the
// level-4 one included, with bounded Run calls, and schedules new ties
// behind events already waiting in sorted and unsorted slots. Firing
// order must stay strictly (at, seq).
func TestAdversarialCoarseSlotOrder(t *testing.T) {
	perSlot := 40_000
	if testing.Short() {
		perSlot = 4_000
	}
	const (
		tick  = time.Duration(1) << tickShift
		span1 = tick << slotBits       // one level-1 slot, ~262 µs
		span2 = tick << (2 * slotBits) // one level-2 slot, ~67 ms
		ties  = 5
	)
	// From a cursor at tick 0: level-1 slot 5 and level-2 slot 3.
	base1, base2 := 5*span1, 3*span2
	level4 := tick << (4 * slotBits) // first instant of level 4, ~73 min
	m := newOrderModel(t)
	rng := rand.New(rand.NewSource(1))

	// Descending instants, ties consecutive, the two slots interleaved.
	groups := perSlot / ties
	step1, step2 := span1/time.Duration(groups), span2/time.Duration(groups)
	var slot1, slot2 []int
	for i := 0; i < perSlot; i++ {
		g := time.Duration(groups - 1 - i/ties)
		slot1 = append(slot1, m.schedule(base1+g*step1))
		slot2 = append(slot2, m.schedule(base2+g*step2))
	}
	// Level-4 events, also descending with ties, some sharing instants.
	var far []int
	for i := 0; i < perSlot/10; i++ {
		far = append(far, m.schedule(level4+time.Minute+time.Duration(perSlot/10-i/ties)*time.Millisecond))
	}
	// Reschedule into and out of the crowded slots and level 4, onto
	// instants that already carry older ties (so the mover is the newest
	// of its tie), and cancel a tenth of everything.
	pick := func(ids []int) int { return ids[rng.Intn(len(ids))] }
	for i := 0; i < perSlot/10; i++ {
		m.reschedule(pick(slot1), m.evs[pick(slot2)].at)
		m.reschedule(pick(slot2), m.evs[pick(slot1)].at)
		m.reschedule(pick(far), m.evs[pick(slot1)].at)
		m.reschedule(pick(slot2), m.evs[pick(far)].at)
		m.cancel(pick(slot1))
		m.cancel(pick(slot2))
		m.cancel(pick(far))
	}

	// Cross the level-1 cascade with a bounded Run ending mid-slot.
	m.check(0)
	mid1 := base1 + span1/2
	m.e.Run(mid1)
	m.check(mid1)
	// The cursor now sits inside the level-1 slot's span: new ties land
	// directly on sorted level-0 slots, behind their cascaded elders.
	for i := 0; i < perSlot/10; i++ {
		at := m.evs[pick(slot1)].at
		if at > mid1 {
			m.schedule(at)
		}
	}
	m.e.Run(base1 + span1)
	m.check(base1 + span1)

	// Cross the level-2 cascade (level 2 → 1 → 0) in bounded steps,
	// moving some of its events earlier and cancelling others between
	// steps.
	for k := 1; k <= 4; k++ {
		until := base2 + time.Duration(k)*span2/4
		for i := 0; i < perSlot/20; i++ {
			id := pick(slot2)
			if at := m.evs[id].at - span2/8; at > until-span2/4 {
				m.reschedule(id, at) // stays above the last Run's deadline
			}
			m.cancel(pick(slot2))
		}
		m.e.Run(until)
		m.check(until)
	}

	// Cascade the level-4 slot with a bounded Run, after which the
	// trigger schedules new ties with the cascaded events (each must
	// fire after its older twin), then cross the cascaded events' coarse
	// slots in another bounded step.
	trigger := level4 + 30*time.Second
	m.scheduleThen(trigger, func() {
		for i := 0; i < len(far); i += 3 {
			if r := m.evs[far[i]]; r.state == orderLive {
				m.schedule(r.at)
			}
		}
	})
	m.e.Run(trigger)
	m.check(trigger)
	midFar := level4 + time.Minute + time.Duration(perSlot/20)*time.Millisecond
	m.e.Run(midFar)
	m.check(midFar)
	drain(m.e)
	m.check(1 << 62)
	m.verifySorted()
}

// popRecorder records every observed pop for the observer tests.
type popRecorder struct {
	ats  []time.Duration
	seqs []uint64
}

func (p *popRecorder) EventFired(at time.Duration, seq uint64) {
	p.ats = append(p.ats, at)
	p.seqs = append(p.seqs, seq)
}

func TestObserverSeesEveryPopInOrder(t *testing.T) {
	e := New(1)
	rec := &popRecorder{}
	e.SetObserver(rec)
	var fired []time.Duration
	for _, d := range []time.Duration{30, 10, 20} {
		d := d * time.Millisecond
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	// An event scheduled from a callback is observed too.
	e.Schedule(5*time.Millisecond, func() {
		e.After(time.Millisecond, func() {})
	})
	drain(e)
	if len(rec.ats) != 5 {
		t.Fatalf("observer saw %d pops, want 5", len(rec.ats))
	}
	for i := 1; i < len(rec.ats); i++ {
		if rec.ats[i] < rec.ats[i-1] || (rec.ats[i] == rec.ats[i-1] && rec.seqs[i] <= rec.seqs[i-1]) {
			t.Fatalf("observer pops out of (at, seq) order at %d: %v/%v after %v/%v",
				i, rec.ats[i], rec.seqs[i], rec.ats[i-1], rec.seqs[i-1])
		}
	}
	// Disabling the observer stops the stream.
	e.SetObserver(nil)
	e.Schedule(e.Now()+time.Millisecond, func() {})
	drain(e)
	if len(rec.ats) != 5 {
		t.Fatalf("disabled observer still saw pops: %d", len(rec.ats))
	}
}

// TestTopLevelsAgainstOrderModel exercises the levels past 256^4 ticks
// (~73 min): events at each level boundary from 256^4 ticks (level 4)
// to 256^6 ticks (level 6, ~9 years), and at the last instant a
// time.Duration names, with ties and near events beside them. They are
// moved across levels with RescheduleTo, canceled, and fired over
// bounded Run calls that end on either side of each boundary, checked
// pop by pop against the order model. A second population on the same
// levels, partly cascaded by a bounded Run, must be drained by Reset.
func TestTopLevelsAgainstOrderModel(t *testing.T) {
	const (
		tick = time.Duration(1) << tickShift
		end  = time.Duration(math.MaxInt64)
	)
	var bounds []time.Duration
	for l := 4; l < numLevels; l++ {
		bounds = append(bounds, tick<<(l*slotBits))
	}
	if last := bounds[len(bounds)-1]; last != tick<<48 || end>>tickShift>>(numLevels*slotBits) != 0 {
		t.Fatalf("top boundary %v: the levels do not end at 256^6 ticks or miss the last instant", last)
	}

	m := newOrderModel(t)
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, time.Second, time.Minute} {
		m.schedule(d)
	}
	// Around each boundary: a tick before, the last nanosecond before,
	// the boundary itself twice (a tie), and just after it.
	around := make([][]int, len(bounds)) // event ids by boundary
	for i, b := range bounds {
		for _, d := range []time.Duration{b - tick, b - 1, b, b, b + 1, b + tick} {
			around[i] = append(around[i], m.schedule(d))
		}
	}
	last := []int{m.schedule(end - tick), m.schedule(end), m.schedule(end)}
	// A boundary event that, when it fires, schedules ties behind
	// events already waiting on the higher levels.
	m.scheduleThen(bounds[1], func() {
		m.schedule(bounds[2])
		m.schedule(end)
	})

	// Move events across levels: level 6 down to 4, level 4 up to 6,
	// level 5 to the last instant and back, and cancel one of each.
	m.reschedule(around[2][0], bounds[0]+tick)
	m.reschedule(around[0][5], bounds[2]+2*tick)
	m.reschedule(around[1][2], end)
	m.reschedule(last[0], bounds[1]-2*tick)
	m.reschedule(around[1][2], bounds[1])
	m.cancel(around[0][1])
	m.cancel(around[1][3])
	m.cancel(around[2][4])
	m.cancel(last[1])

	// Bounded Runs ending just before, at and just past each boundary;
	// between them, pull a waiting higher-level event down below the
	// next deadline so it lands on a level the cursor has reached.
	m.check(0)
	for i, b := range bounds {
		for _, until := range []time.Duration{b - 1, b, b + tick} {
			m.e.Run(until)
			m.check(until)
		}
		if i+1 < len(bounds) {
			m.reschedule(around[i+1][5], b+2*tick)
			m.schedule(b + 3*tick)
		}
	}
	m.e.Run(end - 1)
	m.check(end - 1)
	m.e.Run(end)
	m.check(end)
	if n := drain(m.e); n != 0 {
		t.Fatalf("drain fired %d events after Run(%v)", n, end)
	}
	m.verifySorted()

	// Reset drains a population on levels 4 to 6, partly cascaded.
	e := New(1)
	fired := 0
	fn := func() { fired++ }
	scheduled := 0
	for _, b := range bounds {
		for _, d := range []time.Duration{b, b + time.Hour} {
			e.Schedule(d, fn)
			scheduled++
		}
	}
	e.Schedule(end, fn)
	scheduled++
	if n := e.Run(bounds[1] - 1); n != 2 || fired != 2 {
		t.Fatalf("Run(%v) fired %d events, want the 2 on level 4", bounds[1]-1, n)
	}
	e.Reset(1)
	if got := freeLen(e); got != e.made || e.made < scheduled {
		t.Fatalf("freelist holds %d of the %d events made after Reset, want all (at least %d)", got, e.made, scheduled)
	}
	if n := drain(e); n != 0 || e.Pending() != 0 {
		t.Fatalf("reset engine fired %d events, %d pending, want none", n, e.Pending())
	}
	e.Schedule(time.Millisecond, fn)
	drain(e)
	if fired != 3 || e.Now() != time.Millisecond {
		t.Fatalf("post-reset schedule: %d fired, now %v, want 3 at 1ms", fired, e.Now())
	}
}
