// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulated components share a single Engine. Virtual time is a
// time.Duration measured from the start of the simulation; no wall-clock
// time is involved. Events scheduled for the same instant fire in the
// order they were scheduled, which makes runs bit-for-bit reproducible
// for a given seed.
//
// The scheduler is a hierarchical timer wheel (Varghese–Lauck) whose
// levels span every instant a time.Duration can name, sized for the
// simulator's workload: short-horizon, high-churn MAC timers that are
// frequently canceled or moved.
// Schedule, Cancel, and RescheduleTo are O(1) amortized: coarse wheel
// slots are unordered lists, and only the finest level, one ~1 µs tick
// per slot, is kept sorted, so an insertion scans at most one tick's
// events. Canceled events are unlinked immediately (no tombstones drag
// through the queue) and their structs recycled through a freelist, so
// the steady state of schedule/fire/cancel is allocation-free.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Scheduler geometry. Virtual time is bucketed into ticks of 2^tickShift
// nanoseconds; each wheel level has numSlots slots, and level l covers an
// aligned block of numSlots^(l+1) ticks around the cursor. A tick of a
// non-negative time.Duration has 63-tickShift bits, so numLevels levels
// (7 with this geometry) resolve every instant and no event waits
// outside the wheels.
const (
	tickShift = 10 // one tick = 1024 ns ≈ 1 µs
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = (63 - tickShift + slotBits - 1) / slotBits
)

// Event is a handle to a scheduled callback. It may be canceled or
// rescheduled before it fires. The zero value is not useful; Events are
// created by Engine.Schedule and Engine.After.
//
// Once an event has fired or was canceled, its struct is recycled by the
// engine and handed out again by a later Schedule. Holders must therefore
// drop their handle when the callback runs (conventionally by clearing
// the field that stores it as the first statement of the callback) and
// must not pass a handle to Engine.Cancel or Engine.RescheduleTo, or
// inspect it, after its event fired or was canceled: it may alias a
// newer, unrelated event. An event does not point back at its engine;
// it is canceled or moved through the engine that scheduled it.
type Event struct {
	at  time.Duration
	seq uint64
	// fn is a shared (typically package-level) dispatcher and arg its
	// receiver, so high-churn callers need no per-object closure. A
	// Schedule'd closure is the arg of callClosure.
	fn  func(any)
	arg any

	// Location state: the intrusive doubly-linked list of wheel slot
	// [level][slot] while queued; queued is false once the event fired or
	// was canceled, and while it is pooled, when next threads the
	// engine's freelist.
	next, prev *Event
	level      uint8
	slot       uint8
	queued     bool
}

// At returns the virtual time at which the event is scheduled to fire.
func (ev *Event) At() time.Duration { return ev.at }

// Cancel prevents ev from firing. The event is unlinked from the
// scheduler immediately — O(1), no tombstone — and its struct becomes
// eligible for reuse by the next Schedule, so the handle is dead after
// Cancel returns. Canceling an event that already fired or was already
// canceled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if !ev.queued {
		return
	}
	e.detach(ev)
	e.live--
	e.release(ev)
}

// RescheduleTo moves the still-pending ev to fire at virtual time at,
// behaving exactly like Cancel followed by re-scheduling the same
// callback (in particular, the event is ordered as the newest event at
// its new instant). It is the allocation- and tombstone-free form of the
// cancel-and-rearm pattern MAC/NAV-style timers use. Rescheduling an
// event that is not pending, or into the past, panics.
func (e *Engine) RescheduleTo(ev *Event, at time.Duration) {
	if !ev.queued {
		panic("sim: RescheduleTo on an event that is not scheduled")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, e.now))
	}
	e.detach(ev)
	ev.at = at
	ev.seq = e.seq
	e.seq++
	e.insert(ev)
}

// slotList is one wheel slot: an intrusive doubly-linked event list. A
// level-0 slot holds a single tick and is kept sorted by (at, seq), so
// its head is the tick's earliest event (a tick, 2^tickShift ns, is
// coarser than virtual time, so same-slot events may still differ in at).
// Coarse slots (levels 1 and up) are unordered: insert appends to them in
// O(1), and order is imposed only when a cascade moves their events down
// to level 0, the only level next reads heads from.
type slotList struct {
	head, tail *Event
}

// Observer is notified of every event execution, in order, before the
// event's callback runs. Observers must be pure: they may not schedule,
// cancel, or touch the engine's random stream, so that an observed run
// is indistinguishable from an unobserved one. The invariant auditor
// (internal/check) uses this to verify that pops are monotone in
// (at, seq) and to fold the event stream into a trace digest.
type Observer interface {
	EventFired(at time.Duration, seq uint64)
}

// Engine is a discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; a simulation runs on one goroutine.
type Engine struct {
	now       time.Duration
	seq       uint64
	rng       *rand.Rand
	obs       Observer
	processed uint64
	// live is the number of scheduled (not yet fired, not canceled)
	// events.
	live int

	// cursor is the scheduler's current tick: every live event's tick is
	// >= cursor, and the wheel level an event lives on is determined by
	// the highest block in which its tick and the cursor differ.
	cursor   uint64
	wheels   [numLevels][numSlots]slotList
	occupied [numLevels][numSlots / 64]uint64 // per-level slot bitmaps

	// free heads the list, threaded through Event.next, of fired,
	// canceled and never-used Event structs, keeping the steady state of
	// Schedule/After/Cancel allocation-free. Structs come from blocks
	// (see takeEvent), so the engine holds at most the peak number of
	// concurrently pending events plus one block's unused tail; made
	// counts them.
	free *Event
	made int

	// arena, when attached, supplies per-run memory to the layers built
	// on this engine; Reset reclaims it together with the scheduler
	// state (see arena.go).
	arena *Arena
}

// New returns an Engine whose random stream is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Reset returns the engine to the state of New(seed) while keeping its
// allocated capacity: pending events on every wheel level are drained
// into the freelist (callback references dropped), the occupancy
// bitmaps are cleared, the clock, sequence counter, cursor and
// processed count rewind to zero, the observer is detached, the random
// stream is reseeded (bit-identical to a fresh New(seed) stream), and
// the attached arena — if any — reclaims its slabs. A run on a reset
// engine is therefore byte-identical to a run on a fresh engine, but
// repeated runs reach a steady state that allocates nothing, because
// the event freelist, its blocks and arena backing memory survive.
func (e *Engine) Reset(seed int64) {
	for l := 0; l < numLevels; l++ {
		for i := range e.wheels[l] {
			ev := e.wheels[l][i].head
			for ev != nil {
				nxt := ev.next
				ev.next, ev.prev = nil, nil
				ev.queued = false
				e.release(ev)
				ev = nxt
			}
			e.wheels[l][i] = slotList{}
		}
		for w := range e.occupied[l] {
			e.occupied[l][w] = 0
		}
	}
	e.now, e.seq, e.cursor = 0, 0, 0
	e.processed, e.live = 0, 0
	e.obs = nil
	e.rng.Seed(seed)
	if e.arena != nil {
		e.arena.reset()
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic random stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetObserver installs an execution observer (nil disables). The
// disabled path costs one nil check per event, which is what keeps the
// auditor free when it is off.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of live events currently scheduled. Canceled
// events are unlinked eagerly and never counted.
func (e *Engine) Pending() int { return e.live }

// Schedule registers fn to run at virtual time at. Scheduling in the past
// panics: it always indicates a protocol bug, and silently reordering
// time would corrupt every downstream metric.
func (e *Engine) Schedule(at time.Duration, fn func()) *Event {
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	return e.ScheduleArg(at, callClosure, fn)
}

// callClosure is Schedule's dispatcher: the closure is its argument. A
// func value is pointer-shaped, so boxing it in an interface does not
// allocate.
func callClosure(fn any) { fn.(func())() }

// After registers fn to run d from now. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// ScheduleArg registers fn(arg) to run at virtual time at. It is the
// closure-free form of Schedule for hot callers: fn is typically a
// package-level dispatcher shared by every event of one kind, and arg
// (usually a pointer) carries the per-event state, so scheduling does
// not allocate a captured-variable closure per object.
func (e *Engine) ScheduleArg(at time.Duration, fn func(any), arg any) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := e.takeEvent()
	ev.at, ev.seq, ev.fn, ev.arg = at, e.seq, fn, arg
	e.seq++
	if e.live == 0 {
		// Empty scheduler: snap the cursor to the present so the event
		// lands on the finest wheel its delay allows.
		e.cursor = uint64(e.now) >> tickShift
	}
	e.live++
	e.insert(ev)
	return ev
}

// AfterArg registers fn(arg) to run d from now. Negative d panics.
func (e *Engine) AfterArg(d time.Duration, fn func(any), arg any) *Event {
	return e.ScheduleArg(e.now+d, fn, arg)
}

// Event blocks grow from firstEventBlock to maxEventBlock events,
// doubling: a short-lived engine takes one 4 KiB block, and a 10,000-node
// run's ~50,000 pending events take a few dozen 64 KiB blocks instead of
// one allocation each.
const (
	firstEventBlock = 64
	maxEventBlock   = 1024
)

// takeEvent pops the freelist, first refilling it with a fresh block of
// events when it is empty. Blocks are never freed: every struct stays on
// a wheel or on the freelist, across Reset too.
func (e *Engine) takeEvent() *Event {
	if e.free == nil {
		blk := make([]Event, min(max(e.made, firstEventBlock), maxEventBlock))
		for i := range blk[:len(blk)-1] {
			blk[i].next = &blk[i+1]
		}
		e.free = &blk[0]
		e.made += len(blk)
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// release returns a detached event to the freelist. The callback and
// argument references are dropped so captured state is not kept alive by
// the pool.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.arg = nil
	ev.prev = nil
	ev.next = e.free
	e.free = ev
}

// insert places a live event on the wheel level implied by its tick's
// distance from the cursor: the highest slotBits-wide block in which the
// two differ (level 0 when they share all but the lowest block).
func (e *Engine) insert(ev *Event) {
	t := uint64(ev.at) >> tickShift
	level := uint(bits.Len64((t^e.cursor)|1)-1) / slotBits
	idx := int(t>>(level*slotBits)) & slotMask
	ev.level, ev.slot, ev.queued = uint8(level), uint8(idx), true
	s := &e.wheels[level][idx]
	// Coarse slots are unordered: append. A level-0 slot is kept sorted,
	// scanning from the tail: a newly scheduled event has the largest seq,
	// so it lands at the tail unless an earlier-at event arrives after
	// later-at ones (as cascades from unordered slots deliver them). The
	// scan is bounded by one tick's population.
	cur := s.tail
	if level == 0 {
		for cur != nil && evLess(ev, cur) {
			cur = cur.prev
		}
	}
	if cur == nil {
		ev.prev, ev.next = nil, s.head
		if s.head != nil {
			s.head.prev = ev
		} else {
			s.tail = ev
		}
		s.head = ev
	} else {
		ev.prev, ev.next = cur, cur.next
		cur.next = ev
		if ev.next != nil {
			ev.next.prev = ev
		} else {
			s.tail = ev
		}
	}
	e.occupied[level][idx>>6] |= 1 << (uint(idx) & 63)
}

// evLess orders events by (at, seq): earlier time first, FIFO at ties.
func evLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// detach unlinks a live event from its wheel slot.
func (e *Engine) detach(ev *Event) {
	s := &e.wheels[ev.level][ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		s.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		s.tail = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if s.head == nil {
		e.occupied[ev.level][ev.slot>>6] &^= 1 << (uint(ev.slot) & 63)
	}
	ev.queued = false
}

// firstSlot returns the index of the level's earliest occupied slot, or
// -1. Slots the cursor has passed are always empty, so the first set bit
// is the earliest future slot.
func (e *Engine) firstSlot(level int) int {
	for w := 0; w < numSlots/64; w++ {
		if word := e.occupied[level][w]; word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// next returns the earliest live event without detaching it, advancing
// the cursor (cascading coarse slots onto finer wheels) as needed. It
// returns nil when nothing is scheduled.
func (e *Engine) next() *Event {
	return e.nextWithin(^uint64(0))
}

// nextWithin is next bounded by a tick limit: the cursor never advances
// past limit, and nil is returned when the earliest event's tick is
// beyond it. The bound matters for Run's deadline peek: events may later
// be scheduled at any instant >= now, and insert assumes their ticks are
// >= cursor, so peeking past a deadline must not drag the cursor beyond
// the region future schedules can still target. An event with tick <=
// limit always lives in a slot whose span starts at or before its tick,
// so the bound never hides an in-limit event. Cascading only relocates
// events, so a peek that stops at the limit is harmless.
func (e *Engine) nextWithin(limit uint64) *Event {
	for {
		if idx := e.firstSlot(0); idx >= 0 {
			return e.wheels[0][idx].head
		}
		level, idx := 1, -1
		for ; level < numLevels; level++ {
			if idx = e.firstSlot(level); idx >= 0 {
				break
			}
		}
		if idx < 0 {
			return nil
		}
		// Advance the cursor to the start of that slot's span and
		// redistribute its events; each lands on a finer level, so this
		// terminates.
		shift := uint(level) * slotBits
		cur := (e.cursor>>(shift+slotBits))<<(shift+slotBits) | uint64(idx)<<shift
		if cur > limit {
			return nil // every remaining event fires after the limit
		}
		e.cursor = cur
		s := &e.wheels[level][idx]
		ev := s.head
		s.head, s.tail = nil, nil
		e.occupied[level][idx>>6] &^= 1 << (uint(idx) & 63)
		for ev != nil {
			nxt := ev.next
			ev.next, ev.prev = nil, nil
			ev.queued = false
			e.insert(ev)
			ev = nxt
		}
	}
}

// fire detaches ev, advances the clock to it, and executes its callback.
func (e *Engine) fire(ev *Event) {
	if e.obs != nil {
		e.obs.EventFired(ev.at, ev.seq)
	}
	e.detach(ev)
	e.now = ev.at
	e.cursor = uint64(ev.at) >> tickShift
	e.processed++
	e.live--
	fn, arg := ev.fn, ev.arg
	e.release(ev)
	fn(arg)
}

// Step executes the next pending event, if any, advancing the clock to
// its timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	ev := e.next()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run executes events until the queue is empty or the next event is
// scheduled after until. The clock is left at until (or at the last event
// time if that is later, which cannot happen by construction). Run returns
// the number of events executed.
func (e *Engine) Run(until time.Duration) uint64 {
	n, _ := e.RunChecked(until, 0, nil)
	return n
}

// ErrEventBudget is returned by RunChecked when the run fired its
// maximum number of events before draining the queue.
var ErrEventBudget = errors.New("sim: event budget exhausted")

// checkMask amortizes RunChecked's interruption polls: check runs once
// every checkMask+1 fired events, so the per-event cost of being
// cancellable is one masked compare — at the engine's multi-million
// events/s throughput the poll granularity is on the order of a
// millisecond of wall time.
const checkMask = 1<<12 - 1

// RunChecked is Run with two interruption mechanisms for embedding the
// engine in a long-running process:
//
//   - maxEvents, when non-zero, bounds the number of events this call
//     may fire; hitting the bound stops the loop exactly there (the
//     bound is checked per event, deterministically) and returns
//     ErrEventBudget.
//   - check, when non-nil, is polled every checkMask+1 events; a
//     non-nil return stops the loop and is returned verbatim. Callers
//     use it for context cancellation and wall-clock deadlines.
//
// On early termination the virtual clock stays at the last fired
// event's instant — it is NOT advanced to until — and all remaining
// events stay queued, so a diagnostic Collect over the partial run sees
// a consistent (if truncated) simulation. With maxEvents zero and a nil
// check, RunChecked is exactly Run.
func (e *Engine) RunChecked(until time.Duration, maxEvents uint64, check func() error) (uint64, error) {
	if until < e.now {
		return 0, nil
	}
	start := e.processed
	limit := uint64(until) >> tickShift
	for {
		// Peek without detaching — and without letting the deadline peek
		// advance the cursor past until — so a too-late event stays
		// queued where later, nearer schedules can still be placed.
		ev := e.nextWithin(limit)
		if ev == nil || ev.at > until {
			break
		}
		e.fire(ev)
		fired := e.processed - start
		if maxEvents != 0 && fired >= maxEvents {
			return fired, ErrEventBudget
		}
		if check != nil && fired&checkMask == 0 {
			if err := check(); err != nil {
				return fired, err
			}
		}
	}
	if e.now < until {
		e.now = until
	}
	return e.processed - start, nil
}
