package core

import (
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
)

// specFor returns the spec with the given ID, or a zero Spec if absent —
// the same tolerance for lookups after removal that a map gives. Shapers
// track a handful of queries, so a linear scan over an arena-backed slice
// beats a per-shaper map (and its per-run allocation).
func specFor(specs []query.Spec, q query.ID) query.Spec {
	for i := range specs {
		if specs[i].ID == q {
			return specs[i]
		}
	}
	return query.Spec{}
}

// dropSpec removes the spec with the given ID, preserving order.
func dropSpec(specs []query.Spec, q query.ID) []query.Spec {
	for i := range specs {
		if specs[i].ID == q {
			return append(specs[:i], specs[i+1:]...)
		}
	}
	return specs
}

// ShaperStats counts traffic-shaper events.
type ShaperStats struct {
	// PhaseShifts counts DTS phase shifts (late report → postponed s(k+1)).
	PhaseShifts uint64
	// PhaseUpdatesSent counts reports that carried a piggybacked phase.
	PhaseUpdatesSent uint64
	// PhaseRequestsSent counts explicit resynchronization requests.
	PhaseRequestsSent uint64
	// Buffered counts reports held back until their expected send time.
	Buffered uint64
}

// --- NTS ---------------------------------------------------------------

// NTS is "no traffic shaping" (§4.2.1): every node shares the expected
// send and reception times s(k) = r(k) = φ + k·P, and aggregated reports
// are forwarded greedily the moment they are ready. It never delays a
// report (no latency penalty) but nodes of rank d stay awake ~(d−1)·Tagg
// per interval waiting for their subtrees (Eq. 1).
type NTS struct {
	env Env
	ss  *SafeSleep

	specs []query.Spec
	stats ShaperStats
}

var _ query.Shaper = (*NTS)(nil)

// NewNTS creates the no-shaping policy bound to env and ss. Its spec
// table is sized by ss's Queries option.
func NewNTS(env Env, ss *SafeSleep) *NTS {
	n := sim.ArenaGrab[NTS](ss.eng, "core.nts")
	*n = NTS{env: env, ss: ss,
		specs: sim.ArenaSlice[query.Spec](ss.eng, "core.nts.specs", ss.opts.Queries)[:0]}
	return n
}

// Stats returns shaper counters.
func (n *NTS) Stats() ShaperStats { return n.stats }

// QueryAdded implements query.Shaper.
func (n *NTS) QueryAdded(spec query.Spec, children []query.NodeID) {
	n.specs = append(n.specs, spec)
	if !n.env.IsRoot() {
		n.ss.UpdateNextSend(spec.ID, spec.IntervalStart(0))
	}
	for _, c := range children {
		n.ss.UpdateNextReceive(spec.ID, c, spec.IntervalStart(0))
	}
}

// ReportReady implements query.Shaper: NTS forwards immediately.
func (n *NTS) ReportReady(q query.ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	return readyAt, query.NoPhase
}

// ReportSent implements query.Shaper: snext advances to the next period.
func (n *NTS) ReportSent(q query.ID, k int) {
	n.ss.UpdateNextSend(q, specFor(n.specs, q).IntervalStart(k+1))
}

// ReportFailed implements query.Shaper: the schedule is query-derived,
// so it advances exactly as if the report had been delivered.
func (n *NTS) ReportFailed(q query.ID, k int) { n.ReportSent(q, k) }

// ReportReceived implements query.Shaper: rnext(c) = φ + (k+1)·P.
func (n *NTS) ReportReceived(q query.ID, c query.NodeID, k int, phase time.Duration) {
	n.ss.UpdateNextReceive(q, c, specFor(n.specs, q).IntervalStart(k+1))
}

// IntervalClosed advances rnext for children that never reported, so a
// lost report cannot pin the radio on forever.
func (n *NTS) IntervalClosed(q query.ID, k int, missing []query.NodeID) {
	spec := specFor(n.specs, q)
	for _, c := range missing {
		n.ss.UpdateNextReceive(q, c, spec.IntervalStart(k+1))
	}
}

// CollectDeadline implements the §4.3 NTS timeout tTO(d) = (d+1)·D/M
// after the interval start, with D the query period as in the paper's
// experiments.
func (n *NTS) CollectDeadline(q query.ID, k int) time.Duration {
	spec := specFor(n.specs, q)
	d := n.env.Rank()
	m := n.env.MaxRank()
	if m < 1 {
		m = 1
	}
	return spec.IntervalStart(k) + time.Duration(d+1)*spec.Period/time.Duration(m)
}

// QueryRemoved implements query.Shaper.
func (n *NTS) QueryRemoved(q query.ID) {
	n.specs = dropSpec(n.specs, q)
	n.ss.RemoveQuery(q)
}

// ChildAdded implements query.Shaper.
func (n *NTS) ChildAdded(q query.ID, c query.NodeID) {
	// All nodes share the same schedule; expect the child from the next
	// full interval (conservatively: now).
	n.ss.UpdateNextReceive(q, c, n.env.Now())
}

// ChildRemoved implements query.Shaper.
func (n *NTS) ChildRemoved(q query.ID, c query.NodeID) { n.ss.RemoveChild(q, c) }

// ParentChanged implements query.Shaper: NTS schedules are independent of
// the tree, nothing to do (§4.3).
func (n *NTS) ParentChanged(q query.ID) {}

// ControlReceived implements query.Shaper.
func (n *NTS) ControlReceived(from query.NodeID, msg any) {}

// --- STS ---------------------------------------------------------------

// STS is the static traffic shaper (§4.2.2): transmission of each
// interval's reports is paced over an assigned deadline D, allocating the
// same local deadline l = D/M to each rank. A node of rank d expects its
// children's reports by r(k,c) = φ + k·P + l·rank(c) (the child's expected
// send time) and sends at s(k) = φ + k·P + l·d, buffering early reports.
type STS struct {
	env Env
	ss  *SafeSleep
	// Deadline is D. Zero means "use the query period", the paper's §5
	// configuration.
	Deadline time.Duration
	// TimeoutSlack is the constant tTO in the STS collection deadline
	// s(k) + l − tTO (§4.3).
	TimeoutSlack time.Duration
	// NoBuffering disables holding early reports until s(k) (ablation:
	// without it, receivers are asleep when early reports arrive and the
	// shaping guarantee collapses into MAC retries).
	NoBuffering bool

	specs []query.Spec
	stats ShaperStats
}

var _ query.Shaper = (*STS)(nil)

// NewSTS creates a static traffic shaper. deadline <= 0 selects D = P.
// Its spec table is sized by ss's Queries option.
func NewSTS(env Env, ss *SafeSleep, deadline time.Duration) *STS {
	s := sim.ArenaGrab[STS](ss.eng, "core.sts")
	*s = STS{
		env:          env,
		ss:           ss,
		Deadline:     deadline,
		TimeoutSlack: 10 * time.Millisecond,
		specs:        sim.ArenaSlice[query.Spec](ss.eng, "core.sts.specs", ss.opts.Queries)[:0],
	}
	return s
}

// Stats returns shaper counters.
func (s *STS) Stats() ShaperStats { return s.stats }

// local returns l = D/M for query q.
func (s *STS) local(q query.ID) time.Duration {
	d := s.Deadline
	if d <= 0 {
		d = specFor(s.specs, q).Period
	}
	m := s.env.MaxRank()
	if m < 1 {
		m = 1
	}
	return d / time.Duration(m)
}

// sendTime returns s(k) = φ + k·P + l·rank for this node's current rank.
// Rank is read dynamically so STS adapts (at recomputation cost, §4.3)
// after topology changes.
func (s *STS) sendTime(q query.ID, k int) time.Duration {
	return specFor(s.specs, q).IntervalStart(k) + time.Duration(s.env.Rank())*s.local(q)
}

// recvTime returns r(k,c) = the child's expected send time, computed from
// the child's rank. The paper's r(k) = φ+kP+l(d−1) is the special case of
// a child at rank d−1.
func (s *STS) recvTime(q query.ID, k int, c query.NodeID) time.Duration {
	cr := s.env.RankOf(c)
	if cr < 0 {
		cr = 0
	}
	return specFor(s.specs, q).IntervalStart(k) + time.Duration(cr)*s.local(q)
}

// QueryAdded implements query.Shaper.
func (s *STS) QueryAdded(spec query.Spec, children []query.NodeID) {
	s.specs = append(s.specs, spec)
	if !s.env.IsRoot() {
		s.ss.UpdateNextSend(spec.ID, s.sendTime(spec.ID, 0))
	}
	for _, c := range children {
		s.ss.UpdateNextReceive(spec.ID, c, s.recvTime(spec.ID, 0, c))
	}
}

// ReportReady implements query.Shaper: early reports are buffered until
// s(k); late reports go immediately.
func (s *STS) ReportReady(q query.ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	st := s.sendTime(q, k)
	if readyAt < st && !s.NoBuffering {
		s.stats.Buffered++
		return st, query.NoPhase
	}
	return readyAt, query.NoPhase
}

// ReportSent implements query.Shaper.
func (s *STS) ReportSent(q query.ID, k int) {
	s.ss.UpdateNextSend(q, s.sendTime(q, k+1))
}

// ReportFailed implements query.Shaper: like NTS, the static schedule
// advances regardless of the delivery outcome.
func (s *STS) ReportFailed(q query.ID, k int) { s.ReportSent(q, k) }

// ReportReceived implements query.Shaper.
func (s *STS) ReportReceived(q query.ID, c query.NodeID, k int, phase time.Duration) {
	s.ss.UpdateNextReceive(q, c, s.recvTime(q, k+1, c))
}

// IntervalClosed implements query.Shaper.
func (s *STS) IntervalClosed(q query.ID, k int, missing []query.NodeID) {
	for _, c := range missing {
		s.ss.UpdateNextReceive(q, c, s.recvTime(q, k+1, c))
	}
}

// CollectDeadline implements the §4.3 STS timeout, s(k) + l − tTO,
// clamped to no earlier than the node's own expected send time s(k).
func (s *STS) CollectDeadline(q query.ID, k int) time.Duration {
	st := s.sendTime(q, k)
	dl := st + s.local(q) - s.TimeoutSlack
	if dl < st {
		dl = st
	}
	return dl
}

// QueryRemoved implements query.Shaper.
func (s *STS) QueryRemoved(q query.ID) {
	s.specs = dropSpec(s.specs, q)
	s.ss.RemoveQuery(q)
}

// ChildAdded implements query.Shaper.
func (s *STS) ChildAdded(q query.ID, c query.NodeID) {
	s.ss.UpdateNextReceive(q, c, s.env.Now())
}

// ChildRemoved implements query.Shaper.
func (s *STS) ChildRemoved(q query.ID, c query.NodeID) { s.ss.RemoveChild(q, c) }

// ParentChanged implements query.Shaper. STS reads ranks dynamically, so
// the §4.3 rank recomputation is implicit; expected times self-correct
// from the next interval.
func (s *STS) ParentChanged(q query.ID) {}

// ControlReceived implements query.Shaper.
func (s *STS) ControlReceived(from query.NodeID, msg any) {}

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
	id   query.ID
	spec query.Spec
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
	// NoBuffering disables holding early reports until s(k) (ablation).
	// Schedule bookkeeping is unchanged, so early sends hit sleeping
	// receivers and fall back to MAC retries.
	NoBuffering bool

	q     []*dtsQueryState
	stats ShaperStats
}

var _ query.Shaper = (*DTS)(nil)

// NewDTS creates a dynamic traffic shaper. Its per-query table is sized
// by ss's Queries option, and each query's child table by the children
// QueryAdded passes.
func NewDTS(env Env, ss *SafeSleep) *DTS {
	d := sim.ArenaGrab[DTS](ss.eng, "core.dts")
	*d = DTS{
		env: env,
		ss:  ss,
		q:   sim.ArenaSlice[*dtsQueryState](ss.eng, "core.dts.q", ss.opts.Queries)[:0],
	}
	return d
}

// state returns the per-query state for q, or nil if unknown.
func (d *DTS) state(q query.ID) *dtsQueryState {
	for _, st := range d.q {
		if st.id == q {
			return st
		}
	}
	return nil
}

// Stats returns shaper counters.
func (d *DTS) Stats() ShaperStats { return d.stats }

// QueryAdded implements query.Shaper: s(0) = r(0) = φ.
func (d *DTS) QueryAdded(spec query.Spec, children []query.NodeID) {
	st := sim.ArenaGrab[dtsQueryState](d.ss.eng, "core.dts.state")
	*st = dtsQueryState{
		id:       spec.ID,
		spec:     spec,
		snext:    spec.IntervalStart(0),
		children: sim.ArenaSlice[dtsChild](d.ss.eng, "core.dts.children", len(children))[:0],
	}
	d.q = append(d.q, st)
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
		if readyAt < st.snext {
			if d.NoBuffering {
				sendAt = readyAt
			}
			d.stats.Buffered++
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
		st.children = append(st.children, dtsChild{id: c})
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
		if st.id == q {
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
		st.children = append(st.children, dtsChild{id: c, rnext: now})
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
