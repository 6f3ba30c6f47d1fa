package trace

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func fixedClock(at *time.Duration) func() time.Duration {
	return func() time.Duration { return *at }
}

func TestDisabledTracerIsNoOp(t *testing.T) {
	var nilTracer *Tracer
	nilTracer.Record(1, RadioSleep, "")
	if nilTracer.Enabled() || nilTracer.Events() != nil {
		t.Fatal("nil tracer should be fully inert")
	}
	zero := &Tracer{}
	zero.Record(1, RadioSleep, "")
	if zero.Enabled() || zero.Events() != nil {
		t.Fatal("zero-value tracer should be disabled")
	}
}

func TestRecordAndEvents(t *testing.T) {
	at := time.Duration(0)
	tr := New(10, fixedClock(&at))
	at = time.Second
	tr.Record(3, RadioSleep, "")
	at = 2 * time.Second
	tr.Recordf(4, Reparented, "from %d to %d", 1, 2)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Kind != RadioSleep || evs[0].Node != 3 || evs[0].At != time.Second {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Detail != "from 1 to 2" {
		t.Fatalf("formatted detail = %q", evs[1].Detail)
	}
	if s := evs[1].String(); !strings.Contains(s, "reparented") || !strings.Contains(s, "from 1 to 2") {
		t.Fatalf("rendered event = %q", s)
	}
}

func TestRingBufferEviction(t *testing.T) {
	at := time.Duration(0)
	tr := New(3, fixedClock(&at))
	record := func(from, to int) {
		for i := from; i < to; i++ {
			at = time.Duration(i) * time.Second
			tr.Record(1, RadioWake, "")
		}
	}
	want := func(first time.Duration) {
		t.Helper()
		evs := tr.Events()
		if len(evs) != 3 {
			t.Fatalf("retained %d, want 3", len(evs))
		}
		for i, e := range evs {
			if e.At != first+time.Duration(i)*time.Second {
				t.Fatalf("events = %v, want 3 from %v", evs, first)
			}
		}
	}
	// Exactly full: nothing evicted yet.
	record(0, 3)
	want(0)
	// Chronological order with the oldest two evicted.
	record(3, 5)
	want(2 * time.Second)
	// Wrap past the end of the ring again, landing on the ring's start.
	record(5, 9)
	want(6 * time.Second)
	if cap(tr.buf) > 4 {
		t.Errorf("ring buffer grew to cap %d for capacity 3", cap(tr.buf))
	}
}

// TestHugeCapacityAllocatesByUse: a capacity far beyond memory (it can
// come from a posted spec's trace_capacity) costs only the events
// recorded.
func TestHugeCapacityAllocatesByUse(t *testing.T) {
	at := time.Duration(0)
	tr := New(1<<40, fixedClock(&at))
	for i := 0; i < 5; i++ {
		at = time.Duration(i) * time.Millisecond
		tr.Record(2, RadioSleep, "")
	}
	evs := tr.Events()
	if len(evs) != 5 {
		t.Fatalf("retained %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.At != time.Duration(i)*time.Millisecond {
			t.Fatalf("events = %v, not in recording order", evs)
		}
	}
	if c := cap(tr.buf); c > 64 {
		t.Errorf("buffer cap %d after 5 events", c)
	}
}

// TestRingMatchesModel checks the growing ring against the obvious
// model, the last min(n, capacity) events in recording order, from an
// empty ring through first fill to several wraps.
func TestRingMatchesModel(t *testing.T) {
	cases := []struct{ capacity, n int }{
		{1, 1}, {1, 2}, {1, 5},
		{3, 2}, {3, 3}, {3, 4}, {3, 9},
		{8, 7}, {8, 8}, {8, 17}, {8, 24},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("cap%d_n%d", c.capacity, c.n), func(t *testing.T) {
			at := time.Duration(0)
			tr := New(c.capacity, fixedClock(&at))
			for i := 0; i < c.n; i++ {
				at = time.Duration(i) * time.Millisecond
				tr.Record(1, RadioWake, "")
			}
			first := c.n - c.capacity
			if first < 0 {
				first = 0
			}
			evs := tr.Events()
			if len(evs) != c.n-first {
				t.Fatalf("retained %d, want %d", len(evs), c.n-first)
			}
			for i, e := range evs {
				if want := time.Duration(first+i) * time.Millisecond; e.At != want {
					t.Fatalf("event %d at %v, want %v (events %v)", i, e.At, want, evs)
				}
			}
			if len(tr.buf) > c.capacity {
				t.Errorf("ring holds %d slots for capacity %d", len(tr.buf), c.capacity)
			}
		})
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{RadioSleep, RadioWake, NodeFailed, Reparented, Recovered}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "kind(200)" {
		t.Error("unknown kind fallback broken")
	}
}

func TestInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity accepted")
		}
	}()
	New(0, func() time.Duration { return 0 })
}
