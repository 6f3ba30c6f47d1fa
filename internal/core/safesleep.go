// Package core implements the paper's primary contribution: the ESSAT
// power-management protocols. Each protocol pairs the Safe Sleep local
// scheduler (§4.1) with a traffic shaper — the static (NTS §4.2.1, STS
// §4.2.2) and DTS (§4.2.3) shapers — and includes the §4.3 maintenance
// mechanisms for packet loss and topology changes.
package core

import (
	"math"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// Env gives shapers and Safe Sleep access to the node context they need:
// the clock, the node's place in the routing tree, and a control-message
// path. The node package provides the implementation.
type Env interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Self returns this node's ID.
	Self() query.NodeID
	// IsRoot reports whether this node is the tree root.
	IsRoot() bool
	// Rank returns this node's current rank (max hops to a descendant).
	Rank() int
	// RankOf returns the current rank of another node (used by the
	// static shaper for per-child expected reception times).
	RankOf(n query.NodeID) int
	// MaxRank returns M, the rank of the root.
	MaxRank() int
	// RequestPhaseUpdate asks child to piggyback a phase update on its
	// next report for q. Implementations piggyback the request on the
	// acknowledgement of the report being processed when possible, and
	// fall back to an explicit control packet (§4.3).
	RequestPhaseUpdate(child query.NodeID, q query.ID)
}

// ControlBytes is the on-air size of ESSAT control messages (same as a
// MAC acknowledgement frame).
const ControlBytes = 14

// PhaseRequest asks a child to piggyback a phase update on its next data
// report (DTS resynchronization after detected packet loss, §4.3).
type PhaseRequest struct {
	Query query.ID
}

type recvKey struct {
	q query.ID
	c query.NodeID
}

// SleepObserver is notified of Safe Sleep decisions, synchronously.
// Observers must be pure (no scheduling, no state changes, no random
// draws) so an observed run stays byte-identical to an unobserved one.
// The invariant auditor (internal/check) uses it to verify the
// break-even rule: SS only sleeps through free periods longer than tBE.
type SleepObserver interface {
	// Slept fires when SS decides to turn the radio off: the free period
	// is twakeup − now, which must exceed breakEven.
	Slept(node query.NodeID, now, twakeup, breakEven time.Duration)
}

// SleepStats counts Safe Sleep decisions.
type SleepStats struct {
	// Sleeps is the number of times the radio was put to sleep.
	Sleeps uint64
	// Suppressed counts free periods too short to sleep through
	// (tsleep <= tBE), where SS kept the radio on.
	Suppressed uint64
}

// SafeSleepOptions configures a SafeSleep scheduler.
type SafeSleepOptions struct {
	// BreakEven is tBE: SS sleeps only through free periods strictly
	// longer than this. Negative means "use the radio's own break-even
	// time". Note this is deliberately a parameter independent of the
	// radio hardware so the paper's TBE sensitivity experiments (Fig. 8,
	// Fig. 9) can sweep it.
	BreakEven time.Duration
	// MACBusy reports whether the MAC still has unfinished work; SS never
	// sleeps a node with pending traffic. Nil means "never busy". An
	// interface rather than a func so the standard wiring (the node's
	// MAC) costs no per-node closure.
	MACBusy BusyReporter
	// Disabled turns SS into a no-op (always-on node): used for SPAN
	// backbone nodes and as an ablation.
	Disabled bool
	// Queries and Children size the node's tables to its need: Safe
	// Sleep keeps one send row per query and one receive row per (query,
	// child), and the shaper one schedule entry per query. Zero reserves
	// nothing. Rows beyond the sizing (a child adopted mid-run, a query
	// added by dynamics, an extension flow) append past it.
	Queries, Children int
}

// BusyReporter reports pending work that must keep the radio on.
// *mac.MAC implements it.
type BusyReporter interface {
	Busy() bool
}

// sendEntry and recvEntry are the rows of SafeSleep's expectation tables.
type sendEntry struct {
	q query.ID
	t time.Duration
}

type recvEntry struct {
	key recvKey
	t   time.Duration
}

// SafeSleep is the local sleep scheduler (§4.1, Fig. 1). It tracks, per
// query, the expected reception time of the next data report from each
// child (q.rnext(c)) and the expected send time of the node's next report
// (q.snext), as maintained by the traffic shaper. Whenever the earliest
// expected event is further away than the break-even time, the radio is
// turned off and woken just in time.
type SafeSleep struct {
	eng   *sim.Engine
	radio *radio.Radio
	opts  SafeSleepOptions
	// wakeAhead is tOFF→ON: the radio is woken this long before the next
	// expected event.
	wakeAhead time.Duration
	// awakeUntil keeps the radio on until then regardless of the
	// schedule (the paper's query setup slot, see HoldAwake).
	awakeUntil time.Duration

	// nextSend and nextRecv are small linear tables (a handful of queries
	// and children per node); linear lookups beat maps at this size.
	nextSend []sendEntry
	nextRecv []recvEntry
	// minAt caches the earliest time in both tables, so CheckState — run on
	// every radio-idle transition — does not read them. It is always a
	// lower bound of every row (noRows when both are empty). While stale
	// is false it is exact; raising or removing a row that held it makes
	// it stale, and earliest rescans.
	minAt time.Duration
	stale bool

	wakeEv *sim.Event
	wakeAt time.Duration
	obs    SleepObserver
	obsID  query.NodeID
	stats  SleepStats
}

// Event dispatchers shared by every scheduler: the events carry the
// SafeSleep as their argument instead of per-node closures.
func ssWake(x any) {
	ss := x.(*SafeSleep)
	ss.wakeEv = nil
	ss.radio.TurnOn()
}

func ssCheck(x any) { x.(*SafeSleep).CheckState() }

// neverBusy is the default BusyReporter: a node with no MAC wired in
// never has pending traffic.
type neverBusy struct{}

func (neverBusy) Busy() bool { return false }

// NewSafeSleep creates a Safe Sleep scheduler driving the given radio.
func NewSafeSleep(eng *sim.Engine, r *radio.Radio, opts SafeSleepOptions) *SafeSleep {
	if opts.BreakEven < 0 {
		opts.BreakEven = r.Config().BreakEven()
	}
	if opts.MACBusy == nil {
		opts.MACBusy = neverBusy{}
	}
	ss := sim.ArenaGrab[SafeSleep](eng, "core.safesleep")
	*ss = SafeSleep{
		eng:       eng,
		radio:     r,
		opts:      opts,
		wakeAhead: r.Config().TurnOnDelay,
		// The expectation tables hold exactly the rows the node's queries
		// and children will register, so they never regrow while the
		// build registers them, and a leaf reserves no receive rows.
		nextSend: sim.ArenaSlice[sendEntry](eng, "core.ss.send", opts.Queries)[:0],
		nextRecv: sim.ArenaSlice[recvEntry](eng, "core.ss.recv", opts.Queries*opts.Children)[:0],
		minAt:    noRows,
	}
	// Re-evaluate whenever the radio settles into Idle: after a wake-up
	// (expectations may have vanished while asleep), after a transmission,
	// and — critically — after overhearing a neighbor's frame addressed to
	// someone else, which would otherwise leave the node awake until its
	// next scheduled event.
	r.Subscribe(ss)
	return ss
}

// RadioStateChanged implements radio.StateListener: Safe Sleep
// re-evaluates whenever the radio settles into Idle.
func (ss *SafeSleep) RadioStateChanged(old, new radio.State) {
	if new == radio.Idle {
		ss.CheckState()
	}
}

// MACIdle implements mac.IdleSink: re-evaluate once the MAC drains.
func (ss *SafeSleep) MACIdle() { ss.CheckState() }

// Stats returns a copy of the scheduler's counters.
func (ss *SafeSleep) Stats() SleepStats { return ss.stats }

// SetObserver installs a sleep-decision observer reporting decisions as
// node id (nil disables).
func (ss *SafeSleep) SetObserver(id query.NodeID, o SleepObserver) {
	ss.obsID, ss.obs = id, o
}

// Disabled reports whether the scheduler is a no-op.
func (ss *SafeSleep) Disabled() bool { return ss.opts.Disabled }

// HoldAwake keeps the radio on until at least `until` (the paper's query
// setup slot: "during the setup slot, all nodes keep their radio on").
// The radio is woken immediately if asleep.
func (ss *SafeSleep) HoldAwake(until time.Duration) {
	if until <= ss.awakeUntil {
		return
	}
	ss.awakeUntil = until
	if ss.opts.Disabled {
		return
	}
	ss.ensureAwake()
	// Re-evaluate when the hold expires so the node can sleep again.
	ss.eng.ScheduleArg(until, ssCheck, ss)
}

// findSend returns the index of q's row in nextSend, or -1.
func (ss *SafeSleep) findSend(q query.ID) int {
	for i := range ss.nextSend {
		if ss.nextSend[i].q == q {
			return i
		}
	}
	return -1
}

// findRecv returns the index of k's row in nextRecv, or -1.
func (ss *SafeSleep) findRecv(k recvKey) int {
	for i := range ss.nextRecv {
		if ss.nextRecv[i].key == k {
			return i
		}
	}
	return -1
}

// noRows is the cached minimum of two empty tables.
const noRows = time.Duration(math.MaxInt64)

// setRow maintains the cached minimum when a row's time becomes t; old
// is its previous time, or noRows for a new row. A time at or below the
// lower bound is the new exact minimum. Otherwise, raising the row that
// held the minimum makes it stale.
func (ss *SafeSleep) setRow(old, t time.Duration) {
	switch {
	case t <= ss.minAt:
		ss.minAt, ss.stale = t, false
	case old == ss.minAt:
		ss.stale = true
	}
}

// dropRow maintains the cached minimum when a row holding t is removed.
func (ss *SafeSleep) dropRow(t time.Duration) {
	if t == ss.minAt {
		ss.stale = true
	}
}

// UpdateNextSend records q.snext, the node's expected send time for query
// q, and re-evaluates the sleep schedule (updateNextSend in Fig. 1).
func (ss *SafeSleep) UpdateNextSend(q query.ID, t time.Duration) {
	if i := ss.findSend(q); i >= 0 {
		ss.setRow(ss.nextSend[i].t, t)
		ss.nextSend[i].t = t
	} else {
		ss.setRow(noRows, t)
		ss.nextSend = sim.ArenaAppend(ss.eng, "core.ss.send.grow", ss.nextSend, sendEntry{q: q, t: t})
	}
	ss.CheckState()
}

// UpdateNextReceive records q.rnext(c) for child c and re-evaluates
// (updateNextReceive in Fig. 1).
func (ss *SafeSleep) UpdateNextReceive(q query.ID, c query.NodeID, t time.Duration) {
	k := recvKey{q, c}
	if i := ss.findRecv(k); i >= 0 {
		ss.setRow(ss.nextRecv[i].t, t)
		ss.nextRecv[i].t = t
	} else {
		ss.setRow(noRows, t)
		ss.nextRecv = sim.ArenaAppend(ss.eng, "core.ss.recv.grow", ss.nextRecv, recvEntry{key: k, t: t})
	}
	ss.CheckState()
}

// RemoveChild forgets the expected reception time for (q, c): §4.3,
// "the stale expected send and reception times of the failed node used
// by SS are removed".
func (ss *SafeSleep) RemoveChild(q query.ID, c query.NodeID) {
	if i := ss.findRecv(recvKey{q, c}); i >= 0 {
		ss.dropRow(ss.nextRecv[i].t)
		ss.nextRecv = append(ss.nextRecv[:i], ss.nextRecv[i+1:]...)
	}
	ss.CheckState()
}

// RemoveQuery forgets all state for q (query deregistration).
func (ss *SafeSleep) RemoveQuery(q query.ID) {
	for i := 0; i < len(ss.nextSend); i++ {
		if ss.nextSend[i].q == q {
			ss.dropRow(ss.nextSend[i].t)
			ss.nextSend = append(ss.nextSend[:i], ss.nextSend[i+1:]...)
			i--
		}
	}
	for i := 0; i < len(ss.nextRecv); i++ {
		if ss.nextRecv[i].key.q == q {
			ss.dropRow(ss.nextRecv[i].t)
			ss.nextRecv = append(ss.nextRecv[:i], ss.nextRecv[i+1:]...)
			i--
		}
	}
	ss.CheckState()
}

// sendTime returns the recorded snext for q, or zero if absent.
func (ss *SafeSleep) sendTime(q query.ID) time.Duration {
	if i := ss.findSend(q); i >= 0 {
		return ss.nextSend[i].t
	}
	return 0
}

// recvTime returns the recorded rnext for (q, c), or zero if absent.
func (ss *SafeSleep) recvTime(q query.ID, c query.NodeID) time.Duration {
	if i := ss.findRecv(recvKey{q, c}); i >= 0 {
		return ss.nextRecv[i].t
	}
	return 0
}

// hasRecv reports whether an rnext entry exists for (q, c).
func (ss *SafeSleep) hasRecv(q query.ID, c query.NodeID) bool {
	return ss.findRecv(recvKey{q, c}) >= 0
}

// earliest returns the minimum expected event time, and false if no
// events are expected at all. It scans the tables only when the cached
// minimum is stale.
func (ss *SafeSleep) earliest() (time.Duration, bool) {
	if ss.stale {
		m := noRows
		for i := range ss.nextSend {
			m = min(m, ss.nextSend[i].t)
		}
		for i := range ss.nextRecv {
			m = min(m, ss.nextRecv[i].t)
		}
		ss.minAt, ss.stale = m, false
	}
	return ss.minAt, len(ss.nextSend)+len(ss.nextRecv) > 0
}

// CheckState implements checkState() from Fig. 1: compute twakeup, and if
// the free period exceeds the break-even time, sleep until
// twakeup − tOFF→ON.
func (ss *SafeSleep) CheckState() {
	if ss.opts.Disabled {
		return
	}
	now := ss.eng.Now()
	twakeup, any := ss.earliest()
	if !any {
		return // nothing scheduled; stay as-is (setup phase)
	}
	if twakeup <= now {
		// Busy: a report is due to be sent or received. Make sure the
		// radio is (coming) on.
		ss.ensureAwake()
		return
	}
	if now < ss.awakeUntil {
		return // inside the setup slot: stay on
	}
	if ss.opts.MACBusy.Busy() {
		return // unfinished MAC work (queued frames or an owed ACK)
	}
	switch ss.radio.State() {
	case radio.Rx, radio.Tx:
		return // mid-frame; re-evaluated when it completes
	case radio.Off, radio.TurningOff:
		// Already sleeping: just make sure the wake-up is early enough.
		ss.scheduleWake(twakeup)
		return
	}
	tsleep := twakeup - now
	if tsleep <= ss.opts.BreakEven {
		ss.stats.Suppressed++
		return
	}
	ss.stats.Sleeps++
	if ss.obs != nil {
		ss.obs.Slept(ss.obsID, now, twakeup, ss.opts.BreakEven)
	}
	ss.radio.TurnOff()
	ss.scheduleWake(twakeup)
}

func (ss *SafeSleep) ensureAwake() {
	if ss.wakeEv != nil {
		ss.eng.Cancel(ss.wakeEv)
		ss.wakeEv = nil
	}
	ss.radio.TurnOn()
}

func (ss *SafeSleep) scheduleWake(twakeup time.Duration) {
	at := twakeup - ss.wakeAhead
	if now := ss.eng.Now(); at < now {
		at = now
	}
	if ss.wakeEv != nil {
		if ss.wakeAt <= at {
			return // existing wake-up is early enough
		}
		// Pull the armed wake-up earlier in place instead of cancel+rearm.
		ss.eng.RescheduleTo(ss.wakeEv, at)
		ss.wakeAt = at
		return
	}
	ss.wakeAt = at
	ss.wakeEv = ss.eng.ScheduleArg(at, ssWake, ss)
}
