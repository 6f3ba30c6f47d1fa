// Package trace provides a lightweight structured event log for
// simulations: nodes record typed events into one bounded ring buffer.
//
// Tracing is designed to be cheap enough to leave wired in: a disabled
// Tracer (the zero value or nil) drops events without allocation.
package trace

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/topology"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds: radio power transitions and the §4.3 failure-recovery
// actions.
const (
	RadioSleep Kind = iota + 1
	RadioWake
	NodeFailed
	Reparented
	Recovered
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case RadioSleep:
		return "radio-sleep"
	case RadioWake:
		return "radio-wake"
	case NodeFailed:
		return "node-failed"
	case Reparented:
		return "reparented"
	case Recovered:
		return "recovered"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence.
type Event struct {
	At   time.Duration
	Node topology.NodeID
	Kind Kind
	// Detail is a small free-form annotation (e.g. the old and new
	// parent of a re-parented node).
	Detail string
}

// String renders the event on one line.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%12v node=%-3d %s", e.At, e.Node, e.Kind)
	}
	return fmt.Sprintf("%12v node=%-3d %-18s %s", e.At, e.Node, e.Kind, e.Detail)
}

// Tracer records events into a bounded ring buffer. The zero value is a
// disabled tracer; use New to enable recording.
type Tracer struct {
	capacity int
	// buf grows by append until it holds capacity events, so memory
	// follows the events actually recorded: the capacity can come from
	// outside input (a spec's trace_capacity) and is never allocated up
	// front. Once full, next is the oldest event's index and the ring
	// wraps.
	buf   []Event
	next  int
	clock func() time.Duration
}

// New returns a Tracer retaining the most recent capacity events,
// timestamped with clock.
func New(capacity int, clock func() time.Duration) *Tracer {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	if clock == nil {
		panic("trace: nil clock")
	}
	return &Tracer{capacity: capacity, clock: clock}
}

// Enabled reports whether the tracer records events. A nil Tracer is
// disabled.
func (t *Tracer) Enabled() bool { return t != nil && t.capacity > 0 }

// Record appends an event. On a disabled tracer it is a no-op.
func (t *Tracer) Record(node topology.NodeID, kind Kind, detail string) {
	if !t.Enabled() {
		return
	}
	ev := Event{At: t.clock(), Node: node, Kind: kind, Detail: detail}
	if len(t.buf) < t.capacity {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.next] = ev
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
}

// Recordf appends an event with a formatted detail string. The format
// arguments are not evaluated on a disabled tracer.
func (t *Tracer) Recordf(node topology.NodeID, kind Kind, format string, args ...any) {
	if !t.Enabled() {
		return
	}
	t.Record(node, kind, fmt.Sprintf(format, args...))
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if !t.Enabled() || len(t.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}
