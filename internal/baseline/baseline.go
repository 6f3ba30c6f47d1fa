// Package baseline implements the power-management schemes the paper
// compares ESSAT against (§5):
//
//   - SYNC: a synchronized fixed duty cycle — every node is awake for the
//     same active window of each period (20% at 0.2 s in the paper),
//     the approach of synchronous wake-up protocols like S-MAC.
//   - PSM: IEEE 802.11 power-save with the traffic-advertisement
//     extension: all nodes wake for the ATIM window of every beacon
//     period, announce pending traffic, and only the announced
//     sender/receiver pairs stay up for the data window.
//   - SPAN: a communication-backbone scheme. Following the paper's own
//     configuration, the backbone is the set of non-leaf routing-tree
//     nodes, kept always on, while leaf nodes run NTS-SS. The backbone
//     policy is expressed by disabling Safe Sleep on those nodes (see the
//     experiment wiring), so this package only provides the shared
//     building blocks.
//
// The Greedy shaper gives baseline nodes the protocol-independent query
// mechanics (aggregation deadlines) with no traffic shaping and no sleep
// bookkeeping.
package baseline

import (
	"slices"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// greedyTimeoutFraction is the share of the query period a greedy node
// waits for its children past the interval start.
const greedyTimeoutFraction = 0.75

// Greedy is a pass-through "shaper": reports are forwarded the moment
// they are ready and no sleep schedule is maintained. Collection
// deadlines are 3/4 of the query period past the interval start,
// stretched to perHopDelay·(rank+1) for power managers whose store-and-
// forward latency exceeds the query period (PSM and SYNC wait up to a
// full beacon per hop, so a deeper node must wait proportionally longer
// for its subtree or aggregation degenerates into per-source forwarding).
type Greedy struct {
	// perHopDelay is the power manager's expected per-hop forwarding
	// delay (e.g. the PSM/SYNC beacon period). Zero disables the stretch.
	perHopDelay time.Duration

	eng   *sim.Engine
	rank  Ranker
	specs []*query.Spec // registered queries, in registration order
}

var _ query.Shaper = (*Greedy)(nil)

// Ranker reports a node's current rank in the routing tree (0 = leaf).
// node.Node implements it.
type Ranker interface {
	Rank() int
}

// NewGreedy returns a greedy no-op shaper whose spec table is sized for
// queries registrations and grows from eng's arena past them, and whose
// collection deadline stretches to perHopDelay per hop. rank may be nil
// when perHopDelay is zero (the rank then reads 0).
func NewGreedy(eng *sim.Engine, rank Ranker, queries int, perHopDelay time.Duration) *Greedy {
	g := sim.ArenaGrab[Greedy](eng, "baseline.greedy")
	*g = Greedy{perHopDelay: perHopDelay, eng: eng, rank: rank,
		specs: sim.ArenaSlice[*query.Spec](eng, "baseline.greedy.specs", queries)[:0]}
	return g
}

// QueryAdded implements query.Shaper.
func (g *Greedy) QueryAdded(spec *query.Spec, children []query.NodeID) {
	g.specs = sim.ArenaAppend(g.eng, "baseline.greedy.specs.grow", g.specs, spec)
}

// ReportReady implements query.Shaper: send immediately, no piggyback.
func (g *Greedy) ReportReady(q query.ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	return readyAt, query.NoPhase
}

// ReportSent implements query.Shaper.
func (g *Greedy) ReportSent(q query.ID, k int) {}

// ReportFailed implements query.Shaper.
func (g *Greedy) ReportFailed(q query.ID, k int) {}

// ReportReceived implements query.Shaper.
func (g *Greedy) ReportReceived(q query.ID, c query.NodeID, k int, phase time.Duration) {}

// IntervalClosed implements query.Shaper.
func (g *Greedy) IntervalClosed(q query.ID, k int, missing []query.NodeID) {}

// CollectDeadline implements query.Shaper.
func (g *Greedy) CollectDeadline(q query.ID, k int) time.Duration {
	var spec query.Spec
	if i := g.find(q); i >= 0 {
		spec = *g.specs[i]
	}
	wait := time.Duration(greedyTimeoutFraction * float64(spec.Period))
	rank := 0
	if g.rank != nil {
		rank = g.rank.Rank()
	}
	if byHops := g.perHopDelay * time.Duration(rank+1); byHops > wait {
		wait = byHops
	}
	return spec.IntervalStart(k) + wait
}

// find returns the index of q's spec, or -1.
func (g *Greedy) find(q query.ID) int {
	for i := range g.specs {
		if g.specs[i].ID == q {
			return i
		}
	}
	return -1
}

// QueryRemoved implements query.Shaper.
func (g *Greedy) QueryRemoved(q query.ID) {
	if i := g.find(q); i >= 0 {
		g.specs = append(g.specs[:i], g.specs[i+1:]...)
	}
}

// ChildAdded implements query.Shaper.
func (g *Greedy) ChildAdded(q query.ID, c query.NodeID) {}

// ChildRemoved implements query.Shaper.
func (g *Greedy) ChildRemoved(q query.ID, c query.NodeID) {}

// ParentChanged implements query.Shaper.
func (g *Greedy) ParentChanged(q query.ID) {}

// ControlReceived implements query.Shaper.
func (g *Greedy) ControlReceived(from query.NodeID, msg any) {}

// --- SYNC -------------------------------------------------------------------

// The paper's SYNC schedule: a 20% duty cycle with a 0.2 s period.
const (
	// SyncPeriod is the period of the shared schedule.
	SyncPeriod = 200 * time.Millisecond
	// syncActiveWindow is the awake prefix of each period.
	syncActiveWindow = 40 * time.Millisecond
)

// SyncPM keeps the radio on for the first syncActiveWindow of every
// SyncPeriod, synchronized across all nodes. The MAC transmits only
// while the radio is on, so frames queue until the next shared active
// window.
type SyncPM struct {
	eng   *sim.Engine
	radio *radio.Radio
}

var _ node.PowerManager = (*SyncPM)(nil)

// NewSyncPM creates a SYNC power manager for one node.
func NewSyncPM(eng *sim.Engine, r *radio.Radio) *SyncPM {
	p := sim.ArenaGrab[SyncPM](eng, "baseline.sync")
	*p = SyncPM{eng: eng, radio: r}
	return p
}

// Start implements node.PowerManager.
func (p *SyncPM) Start() { p.windowStart() }

// SYNC's timer dispatchers: the events carry the SyncPM, so a period
// allocates no closure.
func syncWindowStart(x any) { x.(*SyncPM).windowStart() }
func syncWindowEnd(x any)   { x.(*SyncPM).radio.TurnOff() }

func (p *SyncPM) windowStart() {
	p.radio.TurnOn()
	p.eng.AfterArg(syncActiveWindow, syncWindowEnd, p)
	p.eng.AfterArg(SyncPeriod, syncWindowStart, p)
}

// --- PSM --------------------------------------------------------------------

// AtimMsg is PSM's traffic announcement, unicast to the receiver during
// the ATIM window: the sender advertises that it holds frames for Dst
// this beacon period. The MAC-level acknowledgement doubles as the
// ATIM-ACK: only acknowledged destinations receive data this beacon.
type AtimMsg struct {
	Dst node.NodeID
}

// The paper's PSM schedule.
const (
	// PsmBeaconPeriod is the full cycle.
	PsmBeaconPeriod = 200 * time.Millisecond
	// psmAtimWindow is the all-awake announcement window.
	psmAtimWindow = 25 * time.Millisecond
	// psmDataWindow is the advertisement window following the ATIM
	// window: an announced receiver stays awake at least this long after
	// the ATIM window, extended while traffic keeps arriving.
	psmDataWindow = 100 * time.Millisecond
	// psmAtimBytes is the on-air size of an announcement.
	psmAtimBytes = 14
)

// gatedReport is a report a power manager holds until its transfer
// window: the arguments of the mac.Send it will make.
type gatedReport struct {
	dst     node.NodeID
	payload any
	bytes   int
	cb      mac.SendCallback
}

// psmItem is a buffered PSM report. Items are pooled per node (arena
// slabs recycled through a freelist), and an item is itself the MAC
// send callback of its in-window transfer.
type psmItem struct {
	gatedReport
	p        *PsmPM
	attempts int
}

// psmAtim is one in-flight ATIM announcement, pooled like psmItem and
// likewise its own MAC send callback.
type psmAtim struct {
	p   *PsmPM
	dst node.NodeID
}

// PsmPM implements the PSM baseline at one node. Reports submitted by the
// query agent are buffered; at each beacon the node announces buffered
// destinations in the ATIM window, releases the buffer into the MAC, and
// sleeps once its own queue drained and — if it was announced as a
// receiver — the advertisement window passed with no further traffic.
type PsmPM struct {
	eng   *sim.Engine
	id    node.NodeID
	radio *radio.Radio
	mac   *mac.MAC

	buf []*psmItem
	// announced and acked hold this beacon's ATIM destinations and the
	// ones that acknowledged; both are cleared, not reallocated, at each
	// beacon. A node reports to one parent, so they stay tiny.
	announced []node.NodeID
	acked     []node.NodeID
	itemFree  []*psmItem
	atimFree  []*psmAtim
	inAtim    bool
	holdUntil time.Duration
	windowEnd time.Duration
	sleepEv   *sim.Event

	// Announcements counts ATIM frames sent (protocol overhead).
	Announcements uint64
	// Rebuffered counts frames whose in-window delivery failed and that
	// were queued again for the next beacon.
	Rebuffered uint64
}

var _ node.PowerManager = (*PsmPM)(nil)
var _ node.ReportGate = (*PsmPM)(nil)
var _ node.ControlSink = (*PsmPM)(nil)
var _ mac.IdleSink = (*PsmPM)(nil)

// PSM's timer dispatchers: the events carry the PsmPM, so a beacon
// allocates no closure.
func psmBeacon(x any)  { x.(*PsmPM).beaconStart() }
func psmAtimEnd(x any) { x.(*PsmPM).atimEnd() }
func psmHoldEnd(x any) {
	p := x.(*PsmPM)
	p.sleepEv = nil
	p.maybeSleep()
}

// NewPsmPM creates a PSM power manager for one node.
func NewPsmPM(eng *sim.Engine, id node.NodeID, r *radio.Radio, m *mac.MAC) *PsmPM {
	p := sim.ArenaGrab[PsmPM](eng, "baseline.psm")
	*p = PsmPM{eng: eng, id: id, radio: r, mac: m}
	m.SetIdleSink(p)
	return p
}

// Start implements node.PowerManager.
func (p *PsmPM) Start() { p.beaconStart() }

// SubmitReport implements node.ReportGate: buffer until the next beacon's
// announcement cycle.
func (p *PsmPM) SubmitReport(dst node.NodeID, payload any, bytes int, cb mac.SendCallback) {
	it := sim.TakeLast(&p.itemFree)
	if it == nil {
		it = sim.ArenaGrab[psmItem](p.eng, "baseline.psm.item")
	}
	*it = psmItem{gatedReport: gatedReport{dst: dst, payload: payload, bytes: bytes, cb: cb}, p: p}
	p.buf = sim.ArenaAppend(p.eng, "baseline.psm.buf", p.buf, it)
}

// HandleControl implements node.ControlSink: an announcement naming this
// node keeps it awake through the advertisement window.
func (p *PsmPM) HandleControl(src node.NodeID, msg any) {
	atim, ok := msg.(AtimMsg)
	if !ok {
		return
	}
	if atim.Dst == p.id {
		p.extendHold(p.beaconBase() + psmAtimWindow + psmDataWindow)
	}
}

// MACIdle implements mac.IdleSink: the drained MAC may let the node sleep.
func (p *PsmPM) MACIdle() { p.maybeSleep() }

// beaconBase returns the start time of the current beacon period.
func (p *PsmPM) beaconBase() time.Duration {
	return p.eng.Now() / PsmBeaconPeriod * PsmBeaconPeriod
}

func (p *PsmPM) extendHold(until time.Duration) {
	if until > p.holdUntil {
		p.holdUntil = until
	}
}

// maybeSleep powers the radio down when the node has no in-flight work
// and no reason to keep listening this beacon. Frames still buffered for
// the next beacon do not keep the radio on: that is the point of PSM.
func (p *PsmPM) maybeSleep() {
	now := p.eng.Now()
	if now < p.holdUntil {
		if p.sleepEv == nil {
			p.sleepEv = p.eng.ScheduleArg(p.holdUntil, psmHoldEnd, p)
		}
		return
	}
	if p.mac.Busy() {
		return // MAC idle callback will retry
	}
	p.radio.TurnOff()
}

func (p *PsmPM) beaconStart() {
	p.eng.AfterArg(PsmBeaconPeriod, psmBeacon, p)
	p.radio.TurnOn()
	// Everyone listens through the ATIM window.
	p.holdUntil = p.eng.Now() + psmAtimWindow
	p.inAtim = true
	p.acked = p.acked[:0]
	p.announced = p.announced[:0]
	for _, it := range p.buf {
		if slices.Contains(p.announced, it.dst) {
			continue
		}
		p.announced = sim.ArenaAppend(p.eng, "baseline.psm.announced", p.announced, it.dst)
		p.Announcements++
		a := sim.TakeLast(&p.atimFree)
		if a == nil {
			a = sim.ArenaGrab[psmAtim](p.eng, "baseline.psm.atim")
		}
		*a = psmAtim{p: p, dst: it.dst}
		p.mac.Send(it.dst, AtimMsg{Dst: it.dst}, psmAtimBytes, a)
	}
	p.eng.AfterArg(psmAtimWindow, psmAtimEnd, p)
}

// SendDone implements mac.SendCallback: the MAC-level acknowledgement of
// an ATIM doubles as the ATIM-ACK.
func (a *psmAtim) SendDone(ok bool) {
	p, dst := a.p, a.dst
	*a = psmAtim{}
	p.atimFree = sim.ArenaAppend(p.eng, "baseline.psm.atimfree", p.atimFree, a)
	if !ok {
		return // receiver missed the ATIM; retry next beacon
	}
	if !slices.Contains(p.acked, dst) {
		p.acked = sim.ArenaAppend(p.eng, "baseline.psm.acked", p.acked, dst)
	}
	if !p.inAtim {
		// Late ATIM-ACK: the data window already started.
		p.releaseNext()
	}
}

func (p *PsmPM) atimEnd() {
	// Transfers happen inside the advertisement window, one frame at a
	// time, and only toward destinations whose ATIM was acknowledged (the
	// ACK proves the receiver heard the announcement and will hold).
	// Whatever does not fit is re-announced next beacon. The window is a
	// boundary both ends share, so the receiver can sleep at its end
	// without stranding a sender mid-burst.
	p.inAtim = false
	p.windowEnd = p.eng.Now() + psmDataWindow
	p.releaseNext()
}

// releaseGuard is the minimum window remainder worth starting a transfer
// in; anything later risks the receiver sleeping mid-exchange.
const releaseGuard = 20 * time.Millisecond

func (p *PsmPM) releaseNext() {
	if p.inAtim || p.mac.QueueLen() > 0 {
		return // a transfer is already in flight; its callback continues
	}
	if p.eng.Now() > p.windowEnd-releaseGuard {
		p.maybeSleep()
		return
	}
	// Pick the first frame whose destination acknowledged an ATIM.
	idx := -1
	for i, it := range p.buf {
		if slices.Contains(p.acked, it.dst) {
			idx = i
			break
		}
	}
	if idx < 0 {
		p.maybeSleep()
		return
	}
	// Remove it in place, keeping the buffer's order.
	it := p.buf[idx]
	n := idx + copy(p.buf[idx:], p.buf[idx+1:])
	p.buf[n] = nil
	p.buf = p.buf[:n]
	p.mac.Send(it.dst, it.payload, it.bytes, it)
}

// SendDone implements mac.SendCallback for an in-window transfer.
func (it *psmItem) SendDone(ok bool) {
	p := it.p
	switch {
	case ok:
		p.finish(it, true)
	case it.attempts < 4:
		// The receiver likely slept at the window boundary; try again
		// next beacon rather than reporting a link failure.
		it.attempts++
		p.Rebuffered++
		p.buf = sim.ArenaAppend(p.eng, "baseline.psm.buf", p.buf, it)
	default:
		p.finish(it, false)
	}
	p.releaseNext()
}

// finish recycles a delivered or abandoned item, then reports its fate
// to the submitter.
func (p *PsmPM) finish(it *psmItem, ok bool) {
	cb := it.cb
	*it = psmItem{}
	p.itemFree = sim.ArenaAppend(p.eng, "baseline.psm.itemfree", p.itemFree, it)
	if cb != nil {
		cb.SendDone(ok)
	}
}
