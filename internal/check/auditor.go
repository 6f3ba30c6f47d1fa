// Package check implements the cross-layer invariant auditor: an
// optional, pure observer of a running simulation that validates
// physics and protocol rules the hot-path rewrites must never break,
// and folds everything it sees into a canonical trace digest.
//
// The auditor hooks into four layers through their observer interfaces
// (sim.Observer, phy.Observer, mac.Observer, core.SleepObserver), into
// every radio via the existing Subscribe listener, and into the root's
// metric sink via WrapSink. All hooks run synchronously on the single
// simulation goroutine, in event order, and touch nothing: no events
// are scheduled, no random numbers drawn, no layer state mutated. A run
// with the auditor enabled is therefore byte-identical to the same run
// without it — which the golden-trace regression suite depends on.
//
// Invariants checked:
//
//   - scheduler: events fire monotonically in (at, seq), never at a
//     negative time (rule "event-order");
//   - PHY: no frame leaves a radio that is sleeping, transitioning, or
//     crashed/disabled (rule "tx-awake");
//   - MAC: no data transmission while the station's NAV is set (rule
//     "nav-respected");
//   - radio/energy: per-state time accounting is non-negative and sums
//     to elapsed time, and cumulative energy never decreases (rules
//     "time-conserved", "energy-monotone");
//   - Safe Sleep: the radio only sleeps through free periods strictly
//     longer than the break-even time (rule "break-even");
//   - query: reports reaching the root belong to a registered query,
//     to a non-negative interval, and never arrive before their
//     interval's nominal start (rule "report-registered").
//
// The digest is an FNV-1a 64-bit hash over a canonical record stream:
// every fired event's (at, seq), every transmission and delivery, every
// radio transition, and every root-side report. Two runs with the same
// digest executed the same trace; checked-in golden digests turn that
// into a regression suite (see testdata/golden.json).
package check

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// Violation is one observed invariant breach.
type Violation struct {
	// At is the virtual time of the breach.
	At time.Duration
	// Rule names the invariant ("tx-awake", "event-order", ...).
	Rule string
	// Detail describes the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Rule, v.Detail)
}

// Summary is the auditor's end-of-run report, attached to a Result.
type Summary struct {
	// Digest is the canonical trace digest (16 hex digits, FNV-1a 64).
	Digest string
	// Events is the number of scheduler events audited.
	Events uint64
	// Violations holds the first retained breaches (capped); Total is
	// the full count.
	Violations []Violation
	Total      int
}

// maxRetained bounds the violations kept verbatim; the total keeps
// counting past it.
const maxRetained = 32

// record type tags for the digest stream.
const (
	tagEvent byte = iota + 1
	tagTx
	tagDeliver
	tagRadio
	tagReport
	tagInterval
)

// Auditor validates cross-layer invariants and accumulates the trace
// digest. Create one per run with New, wire it via the layer observer
// hooks, and read Summary after the run.
type Auditor struct {
	clock func() time.Duration

	h          uint64 // running FNV-1a 64 state
	events     uint64
	violations []Violation
	total      int

	started      bool
	lastAt       time.Duration
	lastSeq      uint64
	everRegister map[query.ID]query.Spec
	radios       []watchedRadio
}

type watchedRadio struct {
	id         query.NodeID
	r          *radio.Radio
	lastEnergy float64
}

// The auditor implements every layer's observer interface.
var (
	_ sim.Observer       = (*Auditor)(nil)
	_ phy.Observer       = (*Auditor)(nil)
	_ mac.Observer       = (*Auditor)(nil)
	_ core.SleepObserver = (*Auditor)(nil)
)

// New returns an auditor timestamping violations with clock.
func New(clock func() time.Duration) *Auditor {
	const fnvOffset = 14695981039346656037
	return &Auditor{
		clock:        clock,
		h:            fnvOffset,
		everRegister: make(map[query.ID]query.Spec),
	}
}

// violate records a breach at the current clock reading.
func (a *Auditor) violate(rule, format string, args ...any) {
	a.violateAt(a.clock(), rule, format, args...)
}

// violateAt records a breach at an explicit time — used where the
// breach's own timestamp is more precise than the engine clock (the
// event-order hook runs before the clock advances to the popped event).
func (a *Auditor) violateAt(at time.Duration, rule, format string, args ...any) {
	a.total++
	if len(a.violations) < maxRetained {
		a.violations = append(a.violations, Violation{
			At:     at,
			Rule:   rule,
			Detail: fmt.Sprintf(format, args...),
		})
	}
}

// mix folds a tagged record of unsigned values into the digest.
func (a *Auditor) mix(tag byte, vals ...uint64) {
	const fnvPrime = 1099511628211
	h := a.h
	h = (h ^ uint64(tag)) * fnvPrime
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
	}
	a.h = h
}

// Summary returns the end-of-run report.
func (a *Auditor) Summary() *Summary {
	return &Summary{
		Digest:     fmt.Sprintf("%016x", a.h),
		Events:     a.events,
		Violations: append([]Violation(nil), a.violations...),
		Total:      a.total,
	}
}

// --- scheduler -------------------------------------------------------------

// EventFired implements sim.Observer: pops must be monotone in
// (at, seq) — the timer wheel's cascade and overflow promotion must
// never reorder or time-travel.
func (a *Auditor) EventFired(at time.Duration, seq uint64) {
	a.events++
	a.mix(tagEvent, uint64(at), seq)
	if at < 0 {
		a.violateAt(at, "event-order", "event at negative time %v", at)
	}
	if a.started {
		if at < a.lastAt || (at == a.lastAt && seq <= a.lastSeq) {
			a.violateAt(at, "event-order", "pop (%v, seq %d) after (%v, seq %d)", at, seq, a.lastAt, a.lastSeq)
		}
	}
	a.started = true
	a.lastAt, a.lastSeq = at, seq
}

// --- PHY -------------------------------------------------------------------

// TxStarted implements phy.Observer: a frame may only leave a powered,
// enabled radio (Idle or Rx at the instant transmission begins).
func (a *Auditor) TxStarted(f *phy.Frame, state radio.State, enabled bool) {
	a.mix(tagTx, uint64(f.ID), uint64(int64(f.Src)), uint64(int64(f.Dst)), uint64(f.Bytes))
	if !enabled {
		a.violate("tx-awake", "node %d transmitting while disabled/crashed", f.Src)
	}
	if state != radio.Idle && state != radio.Rx {
		a.violate("tx-awake", "node %d transmitting with radio %v", f.Src, state)
	}
}

// Delivered implements phy.Observer (digest only: deliveries have no
// invariant of their own beyond what the radio accounting covers).
func (a *Auditor) Delivered(f *phy.Frame, dst phy.NodeID) {
	a.mix(tagDeliver, uint64(f.ID), uint64(int64(dst)))
}

// --- MAC -------------------------------------------------------------------

// DataTransmit implements mac.Observer: the virtual-carrier-sense
// deadline must have passed before a station contends its data frame.
func (a *Auditor) DataTransmit(id phy.NodeID, now, navUntil time.Duration) {
	if now < navUntil {
		a.violate("nav-respected", "node %d transmitting at %v inside NAV (until %v)", id, now, navUntil)
	}
}

// --- Safe Sleep ------------------------------------------------------------

// Slept implements core.SleepObserver: Safe Sleep's own rule is to
// sleep only through free periods strictly longer than tBE.
func (a *Auditor) Slept(node query.NodeID, now, twakeup, breakEven time.Duration) {
	if twakeup-now <= breakEven {
		a.violate("break-even", "node %d sleeping through %v <= tBE %v", node, twakeup-now, breakEven)
	}
}

// --- radio / energy --------------------------------------------------------

// WatchRadio subscribes the auditor to a radio's state changes: every
// transition is digested, time accounting re-validated, and cumulative
// energy checked monotone. Call before the simulation starts.
func (a *Auditor) WatchRadio(id query.NodeID, r *radio.Radio, profile radio.PowerProfile) {
	a.radios = append(a.radios, watchedRadio{id: id, r: r})
	idx := len(a.radios) - 1
	r.Subscribe(func(old, new radio.State) {
		a.radioChanged(idx, old, new, profile)
	})
}

func (a *Auditor) radioChanged(idx int, old, new radio.State, profile radio.PowerProfile) {
	w := &a.radios[idx]
	now := a.clock()
	a.mix(tagRadio, uint64(int64(w.id)), uint64(old), uint64(new), uint64(now))

	// Time conservation: the per-state ledger must be non-negative and
	// sum exactly to elapsed virtual time.
	var sum time.Duration
	for s := radio.Off; s <= radio.TurningOff; s++ {
		d := w.r.TimeIn(s)
		if d < 0 {
			a.violate("time-conserved", "node %d spent negative time %v in %v", w.id, d, s)
		}
		sum += d
	}
	if sum != now {
		a.violate("time-conserved", "node %d state times sum to %v at %v", w.id, sum, now)
	}

	// Energy: consumption is a non-decreasing, non-negative integral.
	e := w.r.Energy(profile)
	if e < w.lastEnergy || e < 0 {
		a.violate("energy-monotone", "node %d energy fell from %g J to %g J", w.id, w.lastEnergy, e)
	}
	w.lastEnergy = e
}

// --- query reports ---------------------------------------------------------

// RegisterQuery tells the auditor a query exists. Queries registered
// mid-run by the dynamics layer are added the same way; deregistered
// queries stay known, since late pass-through reports may legitimately
// arrive after removal.
func (a *Auditor) RegisterQuery(spec query.Spec) {
	a.everRegister[spec.ID] = spec
}

// WrapSink interposes the auditor between the root agent and the metric
// sink, validating every root-side observation before forwarding it
// unchanged. inner may be nil (audit-only sink).
func (a *Auditor) WrapSink(inner query.Sink) query.Sink {
	return &sinkTap{a: a, inner: inner}
}

type sinkTap struct {
	a     *Auditor
	inner query.Sink
}

func (t *sinkTap) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	t.a.checkReport("report", q, k, latency, coverage)
	t.a.mix(tagReport, uint64(int64(q)), uint64(int64(k)), uint64(latency), uint64(int64(coverage)))
	if t.inner != nil {
		t.inner.ReportArrived(q, k, latency, coverage)
	}
}

func (t *sinkTap) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	t.a.checkReport("interval", q, k, latency, coverage)
	t.a.mix(tagInterval, uint64(int64(q)), uint64(int64(k)), uint64(latency), uint64(int64(coverage)))
	if t.inner != nil {
		t.inner.IntervalClosed(q, k, latency, coverage)
	}
}

func (a *Auditor) checkReport(what string, q query.ID, k int, latency time.Duration, coverage int) {
	spec, known := a.everRegister[q]
	if !known {
		a.violate("report-registered", "%s for unregistered query %d", what, q)
		return
	}
	if k < 0 {
		a.violate("report-registered", "%s for query %d with negative interval %d", what, q, k)
		return
	}
	if latency < 0 {
		a.violate("report-registered", "%s for query %d interval %d arrived %v before its start %v",
			what, q, k, -latency, spec.IntervalStart(k))
	}
	if coverage < 1 {
		a.violate("report-registered", "%s for query %d interval %d with coverage %d", what, q, k, coverage)
	}
}
