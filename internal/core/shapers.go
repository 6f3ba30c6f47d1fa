package core

import (
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
)

// specFor returns the spec with the given ID, or a zero Spec if absent —
// the same tolerance for lookups after removal that a map gives. Shapers
// track a handful of queries, so a linear scan over an arena-backed slice
// beats a per-shaper map (and its per-run allocation). The slice holds
// pointers to the run's one copy of each spec.
func specFor(specs []*query.Spec, q query.ID) query.Spec {
	for _, sp := range specs {
		if sp.ID == q {
			return *sp
		}
	}
	return query.Spec{}
}

// dropSpec removes the spec with the given ID, preserving order.
func dropSpec(specs []*query.Spec, q query.ID) []*query.Spec {
	for i := range specs {
		if specs[i].ID == q {
			return append(specs[:i], specs[i+1:]...)
		}
	}
	return specs
}

// ShaperStats counts DTS events.
type ShaperStats struct {
	// PhaseShifts counts DTS phase shifts (late report → postponed s(k+1)).
	PhaseShifts uint64
	// PhaseUpdatesSent counts reports that carried a piggybacked phase.
	PhaseUpdatesSent uint64
	// PhaseRequestsSent counts explicit resynchronization requests.
	PhaseRequestsSent uint64
}

// --- Static (NTS / STS) ------------------------------------------------

// stsTimeoutSlack is tTO in the STS collection deadline s(k) + l − tTO
// (§4.3).
const stsTimeoutSlack = 10 * time.Millisecond

// Static is the paper's static shaping rule: a node of rank d sends
// interval k's report at s(k) = φ + k·P + l·d and expects child c's at
// r(k,c) = φ + k·P + l·rank(c), the child's own send time, buffering
// reports that are ready early. The paper's r(k) = φ+kP+l(d−1) is the
// special case of a child at rank d−1. The two static protocols differ
// only in the local deadline l and the §4.3 collection timeout:
//
//   - NTS, "no traffic shaping" (§4.2.1): l = 0, so s(k) = r(k) = φ + k·P
//     and reports, never ready before their interval starts, go the
//     moment they are ready. No report is delayed, but a node of rank d
//     stays awake ~(d−1)·Tagg per interval waiting for its subtree
//     (Eq. 1).
//   - STS, the static traffic shaper (§4.2.2): each interval's reports
//     are paced over an assigned deadline D, allocating the same local
//     deadline l = D/M to each rank.
//
// Ranks are read on every call, so the schedule adapts (at
// recomputation cost, §4.3) after topology changes.
type Static struct {
	env Env
	ss  *SafeSleep
	// sts selects l = D/M and the STS timeout; otherwise l = 0 and the
	// NTS timeout.
	sts bool
	// deadline is D; zero means the query period, the paper's §5
	// configuration.
	deadline time.Duration
	// noBuffering sends early reports at once (ablation: receivers are
	// then asleep when they arrive and the shaping guarantee collapses
	// into MAC retries).
	noBuffering bool

	specs []*query.Spec
}

var _ query.Shaper = (*Static)(nil)

// NewNTS creates the NTS-SS rule on the static shaper (l = 0). Its spec
// table is sized by the Queries option ss was built with, and a query registered past it
// (a burst) grows it from the arena.
func NewNTS(env Env, ss *SafeSleep) *Static {
	return newStatic(env, ss, false, 0, false)
}

// NewSTS creates the STS-SS rule on the static shaper (l = D/M).
// deadline <= 0 selects D = P; noBuffering sends early reports at once.
func NewSTS(env Env, ss *SafeSleep, deadline time.Duration, noBuffering bool) *Static {
	return newStatic(env, ss, true, deadline, noBuffering)
}

func newStatic(env Env, ss *SafeSleep, sts bool, deadline time.Duration, noBuffering bool) *Static {
	s := sim.ArenaGrab[Static](ss.eng, "core.static")
	*s = Static{env: env, ss: ss, sts: sts, deadline: deadline, noBuffering: noBuffering,
		specs: sim.ArenaSlice[*query.Spec](ss.eng, "core.static.specs", ss.queries())[:0]}
	return s
}

// maxRank returns M, at least 1.
func (s *Static) maxRank() time.Duration {
	return time.Duration(max(s.env.MaxRank(), 1))
}

// local returns l: D/M under STS, 0 under NTS.
func (s *Static) local(spec query.Spec) time.Duration {
	if !s.sts {
		return 0
	}
	d := s.deadline
	if d <= 0 {
		d = spec.Period
	}
	return d / s.maxRank()
}

// sendTime returns s(k) = φ + k·P + l·rank for this node's current rank.
func (s *Static) sendTime(spec query.Spec, k int) time.Duration {
	return spec.IntervalStart(k) + time.Duration(s.env.Rank())*s.local(spec)
}

// recvTime returns r(k,c) = φ + k·P + l·rank(c).
func (s *Static) recvTime(spec query.Spec, k int, c query.NodeID) time.Duration {
	return spec.IntervalStart(k) + time.Duration(max(s.env.RankOf(c), 0))*s.local(spec)
}

// QueryAdded implements query.Shaper.
func (s *Static) QueryAdded(spec *query.Spec, children []query.NodeID) {
	s.specs = sim.ArenaAppend(s.ss.eng, "core.static.specs.grow", s.specs, spec)
	if !s.env.IsRoot() {
		s.ss.UpdateNextSend(spec.ID, s.sendTime(*spec, 0))
	}
	for _, c := range children {
		s.ss.UpdateNextReceive(spec.ID, c, s.recvTime(*spec, 0, c))
	}
}

// ReportReady implements query.Shaper: early reports are buffered until
// s(k); late reports go immediately.
func (s *Static) ReportReady(q query.ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	if st := s.sendTime(specFor(s.specs, q), k); readyAt < st && !s.noBuffering {
		return st, query.NoPhase
	}
	return readyAt, query.NoPhase
}

// ReportSent implements query.Shaper: snext advances to s(k+1).
func (s *Static) ReportSent(q query.ID, k int) {
	s.ss.UpdateNextSend(q, s.sendTime(specFor(s.specs, q), k+1))
}

// ReportFailed implements query.Shaper: the schedule is query-derived,
// so it advances exactly as if the report had been delivered.
func (s *Static) ReportFailed(q query.ID, k int) { s.ReportSent(q, k) }

// ReportReceived implements query.Shaper: rnext(c) = r(k+1,c).
func (s *Static) ReportReceived(q query.ID, c query.NodeID, k int, phase time.Duration) {
	s.ss.UpdateNextReceive(q, c, s.recvTime(specFor(s.specs, q), k+1, c))
}

// IntervalClosed advances rnext for children that never reported, so a
// lost report cannot pin the radio on forever.
func (s *Static) IntervalClosed(q query.ID, k int, missing []query.NodeID) {
	spec := specFor(s.specs, q)
	for _, c := range missing {
		s.ss.UpdateNextReceive(q, c, s.recvTime(spec, k+1, c))
	}
}

// CollectDeadline implements the §4.3 timeouts. NTS waits tTO(d) =
// (d+1)·D/M past the interval start, with D the query period as in the
// paper's experiments. STS waits until s(k) + l − tTO, clamped to no
// earlier than the node's own expected send time s(k).
func (s *Static) CollectDeadline(q query.ID, k int) time.Duration {
	spec := specFor(s.specs, q)
	if !s.sts {
		return spec.IntervalStart(k) + time.Duration(s.env.Rank()+1)*spec.Period/s.maxRank()
	}
	st := s.sendTime(spec, k)
	return max(st, st+s.local(spec)-stsTimeoutSlack)
}

// QueryRemoved implements query.Shaper.
func (s *Static) QueryRemoved(q query.ID) {
	s.specs = dropSpec(s.specs, q)
	s.ss.RemoveQuery(q)
}

// ChildAdded implements query.Shaper: expect the child from the next
// full interval (conservatively: now).
func (s *Static) ChildAdded(q query.ID, c query.NodeID) {
	s.ss.UpdateNextReceive(q, c, s.env.Now())
}

// ChildRemoved implements query.Shaper.
func (s *Static) ChildRemoved(q query.ID, c query.NodeID) { s.ss.RemoveChild(q, c) }

// ParentChanged implements query.Shaper. Ranks are read on every call,
// so the §4.3 rank recomputation is implicit; expected times
// self-correct from the next interval.
func (s *Static) ParentChanged(q query.ID) {}

// ControlReceived implements query.Shaper.
func (s *Static) ControlReceived(from query.NodeID, msg any) {}

// --- DTS ---------------------------------------------------------------

// dtsChild is one child's row in a query's synchronization table: the
// former rnext/lastK/resync maps fused into a single struct-of-rows
// slice. Nodes have a handful of children, so linear scans win, and the
// rows live in the per-run arena instead of three maps per query.
type dtsChild struct {
	id    query.NodeID
	rnext time.Duration
	lastK int
	// hasLast distinguishes "no reports seen yet" (a re-added child has
	// unknown history, so no gap detection on its first report).
	hasLast bool
	// resync marks a child whose schedule is unknown after detected
	// packet loss; the node stays awake for it until a phase arrives.
	resync bool
}

type dtsQueryState struct {
	spec *query.Spec // the run's one copy
	// snext is s(k) for the next report to send.
	snext time.Duration
	// pendingNext is s(k+1), computed at ReportReady and committed at
	// ReportSent ("upon completing the sending", §4.1).
	pendingNext time.Duration
	// forcePhase makes the next report carry a phase update even without
	// a shift (resynchronization and re-parenting, §4.3).
	forcePhase bool
	children   []dtsChild
}

// child returns c's row, or nil. The pointer is invalidated by appends.
func (st *dtsQueryState) child(c query.NodeID) *dtsChild {
	for i := range st.children {
		if st.children[i].id == c {
			return &st.children[i]
		}
	}
	return nil
}

// DTS is the dynamic traffic shaper (§4.2.3), a Release-Guard-style
// self-tuning policy. Initially s(0) = r(0) = φ. A report ready by its
// expected send time s(k) is sent exactly at s(k) and s(k+1) = s(k) + P —
// parent and child stay synchronized with no communication. A report
// ready late, at t > s(k), is sent immediately and the schedule
// phase-shifts: s(k+1) = t + P, piggybacked to the parent in the report.
type DTS struct {
	env Env
	ss  *SafeSleep
	// noBuffering sends early reports at once (ablation). Schedule
	// bookkeeping is unchanged, so early sends hit sleeping receivers
	// and fall back to MAC retries.
	noBuffering bool

	q     []*dtsQueryState
	stats ShaperStats
}

var _ query.Shaper = (*DTS)(nil)

// NewDTS creates a dynamic traffic shaper; noBuffering sends early
// reports at once. Its per-query table is sized by the Queries option
// ss was built with
// and grows from the arena past it, and each query's child table is
// sized by the children QueryAdded passes.
func NewDTS(env Env, ss *SafeSleep, noBuffering bool) *DTS {
	d := sim.ArenaGrab[DTS](ss.eng, "core.dts")
	*d = DTS{
		env:         env,
		ss:          ss,
		noBuffering: noBuffering,
		q:           sim.ArenaSlice[*dtsQueryState](ss.eng, "core.dts.q", ss.queries())[:0],
	}
	return d
}

// state returns the per-query state for q, or nil if unknown.
func (d *DTS) state(q query.ID) *dtsQueryState {
	for _, st := range d.q {
		if st.spec.ID == q {
			return st
		}
	}
	return nil
}

// Stats returns shaper counters.
func (d *DTS) Stats() ShaperStats { return d.stats }

// QueryAdded implements query.Shaper: s(0) = r(0) = φ.
func (d *DTS) QueryAdded(spec *query.Spec, children []query.NodeID) {
	st := sim.ArenaGrab[dtsQueryState](d.ss.eng, "core.dts.state")
	*st = dtsQueryState{
		spec:     spec,
		snext:    spec.IntervalStart(0),
		children: sim.ArenaSlice[dtsChild](d.ss.eng, "core.dts.children", len(children))[:0],
	}
	d.q = sim.ArenaAppend(d.ss.eng, "core.dts.q.grow", d.q, st)
	if !d.env.IsRoot() {
		d.ss.UpdateNextSend(spec.ID, st.snext)
	}
	r0 := spec.IntervalStart(0)
	for _, c := range children {
		st.children = append(st.children, dtsChild{id: c, rnext: r0, lastK: -1, hasLast: true})
		d.ss.UpdateNextReceive(spec.ID, c, r0)
	}
}

// ReportReady implements query.Shaper.
func (d *DTS) ReportReady(q query.ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	st := d.state(q)
	var sendAt time.Duration
	phase := query.NoPhase
	if readyAt <= st.snext {
		// On time: buffer until s(k); schedules stay implicitly aligned.
		sendAt = st.snext
		if readyAt < st.snext && d.noBuffering {
			sendAt = readyAt
		}
		st.pendingNext = st.snext + st.spec.Period
	} else {
		// Phase shift: send immediately, postpone the next send, and
		// advertise the new phase to the parent.
		sendAt = readyAt
		st.pendingNext = readyAt + st.spec.Period
		phase = st.pendingNext
		d.stats.PhaseShifts++
	}
	if st.forcePhase && phase == query.NoPhase {
		phase = st.pendingNext
	}
	st.forcePhase = false
	if phase != query.NoPhase {
		d.stats.PhaseUpdatesSent++
	}
	d.ss.UpdateNextSend(q, sendAt)
	return sendAt, phase
}

// ReportSent implements query.Shaper: commit s(k+1).
func (d *DTS) ReportSent(q query.ID, k int) {
	st := d.state(q)
	st.snext = st.pendingNext
	d.ss.UpdateNextSend(q, st.snext)
}

// ReportFailed implements query.Shaper: the report is lost, but the
// schedule still advances to the precomputed s(k+1); the next report will
// carry a phase update so the parent (which detects the interval gap)
// resynchronizes (§4.3).
func (d *DTS) ReportFailed(q query.ID, k int) {
	st := d.state(q)
	st.snext = st.pendingNext
	st.forcePhase = true
	d.ss.UpdateNextSend(q, st.snext)
}

// ReportReceived implements query.Shaper. With a piggybacked phase the
// parent adopts it directly; otherwise r(k+1) = r(k) + P. A gap in the
// child's interval numbers means reports (and possibly phase updates)
// were lost: the node requests a phase update and stays awake until
// resynchronized (§4.3).
func (d *DTS) ReportReceived(q query.ID, c query.NodeID, k int, phase time.Duration) {
	st := d.state(q)
	ch := st.child(c)
	if ch == nil {
		// Unknown child (e.g. a report racing a removal): track it afresh,
		// matching the old map semantics of auto-created entries.
		st.children = sim.ArenaAppend(d.ss.eng, "core.dts.children.grow", st.children, dtsChild{id: c})
		ch = &st.children[len(st.children)-1]
	}
	gap := ch.hasLast && k > ch.lastK+1
	ch.lastK, ch.hasLast = k, true

	var rn time.Duration
	switch {
	case phase != query.NoPhase:
		ch.rnext, ch.resync = phase, false
		rn = phase
	case gap || ch.resync:
		// Lost report(s) and no phase on this one: the child may have
		// shifted while we were not listening. Stay awake for this child
		// (rnext in the past = busy) and request a phase update —
		// piggybacked on the acknowledgement of the report we just got,
		// falling back to an explicit packet (§4.3).
		ch.resync = true
		rn = d.env.Now()
		ch.rnext = rn
		d.stats.PhaseRequestsSent++
		d.env.RequestPhaseUpdate(c, q)
	default:
		ch.rnext += st.spec.Period
		rn = ch.rnext
	}
	d.ss.UpdateNextReceive(q, c, rn)
}

// IntervalClosed implements query.Shaper. DTS keeps rnext untouched for
// missing children: a stale (past) expected time keeps the node awake
// until the late report or a resynchronization arrives, which is the
// §4.3 "transient energy waste" behavior. Child failure detection
// eventually removes dead children.
func (d *DTS) IntervalClosed(q query.ID, k int, missing []query.NodeID) {}

// dtsTimeoutSlack is tTO in the DTS collection deadline
// max_c(r(k,c)) + tTO (§4.3).
const dtsTimeoutSlack = 50 * time.Millisecond

// CollectDeadline implements the §4.3 DTS timeout max_c(r(k,c)) + tTO.
func (d *DTS) CollectDeadline(q query.ID, k int) time.Duration {
	st := d.state(q)
	dl := st.spec.IntervalStart(k)
	for i := range st.children {
		if t := st.children[i].rnext; t > dl {
			dl = t
		}
	}
	return dl + dtsTimeoutSlack
}

// QueryRemoved implements query.Shaper.
func (d *DTS) QueryRemoved(q query.ID) {
	for i, st := range d.q {
		if st.spec.ID == q {
			d.q = append(d.q[:i], d.q[i+1:]...)
			break
		}
	}
	d.ss.RemoveQuery(q)
}

// ChildAdded implements query.Shaper: stay awake until the child's first
// report (which carries a phase update) synchronizes the pair.
func (d *DTS) ChildAdded(q query.ID, c query.NodeID) {
	st := d.state(q)
	now := d.env.Now()
	if ch := st.child(c); ch != nil {
		// Re-added child: unknown history, no gap detection on its first
		// report, and any stale resync flag is void.
		ch.rnext, ch.hasLast, ch.resync = now, false, false
	} else {
		st.children = sim.ArenaAppend(d.ss.eng, "core.dts.children.grow", st.children, dtsChild{id: c, rnext: now})
	}
	d.ss.UpdateNextReceive(q, c, now)
}

// ChildRemoved implements query.Shaper.
func (d *DTS) ChildRemoved(q query.ID, c query.NodeID) {
	st := d.state(q)
	for i := range st.children {
		if st.children[i].id == c {
			st.children = append(st.children[:i], st.children[i+1:]...)
			break
		}
	}
	d.ss.RemoveChild(q, c)
}

// ParentChanged implements query.Shaper: one phase update on the first
// report to the new parent resynchronizes the pair (§4.3).
func (d *DTS) ParentChanged(q query.ID) {
	d.state(q).forcePhase = true
}

// ControlReceived implements query.Shaper: a PhaseRequest from the parent
// forces a phase update on the next report.
func (d *DTS) ControlReceived(from query.NodeID, msg any) {
	req, ok := msg.(PhaseRequest)
	if !ok {
		return
	}
	if st := d.state(req.Query); st != nil {
		st.forcePhase = true
	}
}
