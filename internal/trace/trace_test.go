package trace

import (
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
	for i := 0; i < 5; i++ {
		at = time.Duration(i) * time.Second
		tr.Record(1, RadioWake, "")
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	// Chronological order with the oldest two evicted.
	if evs[0].At != 2*time.Second || evs[2].At != 4*time.Second {
		t.Fatalf("events = %v", evs)
	}
}

// TestMerge: shards' events interleave by time, equal times order by
// shard and then by recording order within the shard, and only the
// last capacity events survive.
func TestMerge(t *testing.T) {
	var at0, at1 time.Duration
	s0, s1 := New(8, fixedClock(&at0)), New(8, fixedClock(&at1))
	at0 = 1 * time.Second
	s0.Record(0, RadioSleep, "a")
	at1 = 1 * time.Second
	s1.Record(10, RadioSleep, "b")
	s1.Record(11, RadioSleep, "c")
	at0 = 2 * time.Second
	s0.Record(1, RadioWake, "d")
	s0.Record(2, RadioWake, "e")
	at1 = 2 * time.Second
	s1.Record(12, RadioWake, "f")
	at1 = 3 * time.Second
	s1.Record(13, NodeFailed, "g")
	// A disabled part contributes nothing.
	parts := []*Tracer{s0, nil, s1}

	detail := func(evs []Event) string {
		var sb strings.Builder
		for _, e := range evs {
			sb.WriteString(e.Detail)
		}
		return sb.String()
	}
	t.Run("tie-order", func(t *testing.T) {
		if got := detail(Merge(parts, 100)); got != "abcdefg" {
			t.Errorf("merged order = %q, want abcdefg", got)
		}
	})
	t.Run("last-n", func(t *testing.T) {
		if got := detail(Merge(parts, 3)); got != "efg" {
			t.Errorf("last 3 = %q, want efg", got)
		}
		// The cut may fall between two shards' events at one time.
		if got := detail(Merge(parts, 5)); got != "cdefg" {
			t.Errorf("last 5 = %q, want cdefg", got)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		if got := Merge([]*Tracer{nil}, 4); len(got) != 0 {
			t.Errorf("merge of disabled tracers = %v", got)
		}
	})
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
