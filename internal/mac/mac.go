// Package mac implements a CSMA/CA medium-access layer in the style of the
// IEEE 802.11 distributed coordination function, the MAC the ESSAT paper
// simulates under ns-2.
//
// The protocol: a station with a pending frame waits until the medium has
// been idle for DIFS, then counts down a random backoff drawn from the
// contention window, freezing the countdown while the medium is busy.
// Unicast frames are acknowledged after SIFS; a missing ACK doubles the
// contention window and retransmits, up to a retry limit. Broadcast frames
// are sent once, unacknowledged.
//
// The random backoff is the source of the delay jitter that ESSAT's
// traffic shapers exist to absorb: even perfectly periodic application
// traffic arrives aperiodically after a few contended hops.
//
// Power awareness: the MAC observes its radio. While the radio is off the
// MAC holds its queue; transmission resumes when the radio returns. This
// is how power managers (Safe Sleep, SYNC, PSM) gate communication without
// the MAC needing protocol-specific hooks.
package mac

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// The DCF timing and retry parameters: 802.11b-like at 1 Mbps.
const (
	// slotTime is the backoff slot length.
	slotTime = 20 * time.Microsecond
	// sifs is the short interframe space (data→ACK turnaround).
	sifs = 10 * time.Microsecond
	// difs is the DCF interframe space a station must observe idle
	// before contending.
	difs = 50 * time.Microsecond
	// cwMin and cwMax bound the contention window; backoff is drawn
	// uniformly from [0, CW-1].
	cwMin, cwMax = 32, 1024
	// retryLimit is the number of retransmissions before a unicast frame
	// is reported failed.
	retryLimit = 7
	// ackBytes is the on-air size of an acknowledgement frame.
	ackBytes = 14
)

// Observer is notified of MAC decisions, synchronously. Observers must
// be pure (no scheduling, no state changes, no random draws) so that an
// observed run stays byte-identical to an unobserved one. The invariant
// auditor (internal/check) uses it to verify the NAV is respected.
type Observer interface {
	// DataTransmit fires when the station starts a data-frame
	// transmission: now is the current time, navUntil the station's
	// virtual-carrier-sense deadline (now >= navUntil on a correct run).
	DataTransmit(id phy.NodeID, now, navUntil time.Duration)
}

// Upper receives payloads the MAC successfully reassembled for this node.
type Upper interface {
	// Deliver hands a received payload up the stack. Duplicate unicast
	// frames (retransmissions whose ACK was lost) are filtered out.
	Deliver(src phy.NodeID, payload any, bytes int)
}

// AckInfoSink receives information piggybacked on acknowledgements: an
// Upper implementing it gets the payloads piggybacked on ACKs for this
// station's frames.
type AckInfoSink interface {
	AckInfo(from phy.NodeID, info any)
}

// SendCallback is told the fate of a queued frame: ok is true once the
// frame was acknowledged (or, for broadcast, transmitted) and false when
// the retry limit was exhausted. Per-frame senders (the query agent's
// pooled reports, the baselines' buffered items) implement it on the
// pooled object itself, so a send stores an existing pointer instead of
// allocating a closure.
type SendCallback interface {
	SendDone(ok bool)
}

// Stats counts MAC-level outcomes for one station.
type Stats struct {
	// Enqueued counts frames accepted from the upper layer.
	Enqueued uint64
	// Sent counts frames completed successfully.
	Sent uint64
	// Failed counts frames dropped after exhausting retries.
	Failed uint64
	// Retries counts individual retransmission attempts.
	Retries uint64
	// AcksSent counts acknowledgements transmitted.
	AcksSent uint64
	// Duplicates counts received duplicate data frames (acked, not delivered).
	Duplicates uint64
	// ServiceTime accumulates enqueue→completion time across Sent frames,
	// a proxy for MAC-induced delay.
	ServiceTime time.Duration
}

type frameKind uint8

const (
	kindData frameKind = iota + 1
	kindAck
)

// header is the MAC framing around an upper-layer payload. Headers come
// from a pool every station of a run shares: a received *header is only
// valid during the FrameDelivered callback (the MAC reads it
// synchronously and never retains it).
type header struct {
	kind    frameKind
	seq     uint64
	payload any
}

type txItem struct {
	dst      phy.NodeID
	payload  any
	bytes    int
	cb       SendCallback
	seq      uint64
	attempts int
	enqueued time.Duration
	hdr      *header // on-air framing of the current attempt
}

// MAC is one station's medium-access state machine.
type MAC struct {
	eng   *sim.Engine
	ch    *phy.Channel
	id    phy.NodeID
	radio *radio.Radio
	upper Upper

	queue []*txItem
	// cur is the head item while it is in flight (transmitting or
	// awaiting its ACK); the prebound completion timers operate on it so
	// they need not capture the item per transmission.
	cur     *txItem
	cw      int
	backoff int // remaining slots; preserved across freezes

	// Timers; at most one is active at a time.
	difsEv    *sim.Event
	backoffEv *sim.Event
	ackEv     *sim.Event
	txEndEv   *sim.Event

	backoffStarted time.Duration
	waitingAck     bool
	ackPending     int // acknowledgements owed (scheduled after SIFS)
	inTx           bool

	// navUntil is the virtual-carrier-sense deadline: after overhearing a
	// unicast data frame for another node, the station defers through the
	// SIFS + ACK exchange so acknowledgements are never clobbered by new
	// contention (802.11 NAV).
	navUntil time.Duration
	navEv    *sim.Event

	// lastDecode is when this station last decoded any frame; a carrier
	// falling edge with no decode at the same instant means the reception
	// was corrupted or partially missed, triggering an EIFS defer.
	lastDecode time.Duration

	nextSeq uint64
	// lastSeq is the duplicate-detection state, indexed by neighbor
	// position rather than by NodeID: row i holds one more than the
	// sequence number of the last unicast data frame decoded from the
	// i-th entry of the channel's sorted candidate-neighbor list for
	// this station, or 0 before the first. Frames are only ever
	// delivered from in-range stations, and range is symmetric, so every
	// decodable source appears in that list — this keeps per-node dedup
	// state O(degree) instead of O(N), the difference between ~90 B and
	// ~90 kB per node on the 10k-node tier. Arena-backed when the engine
	// carries one.
	lastSeq []uint64

	// pendingAcks is the FIFO of acknowledgements owed, popped by the
	// prebound SIFS timer callback. SIFS is constant, so scheduling order
	// matches deadline order.
	pendingAcks []ackKey
	// ackHdr is the framing of the in-flight acknowledgement (at most one:
	// a second ACK due mid-transmission is dropped by sendAck).
	ackHdr *header

	// Object pools keep the contention/ACK hot path allocation-free in
	// the steady state. Every station of a run shares the same two
	// pools, which therefore hold only what the network has in flight at
	// once. Timer callbacks are shared package-level dispatchers whose
	// events carry the MAC (no per-station closures).
	items *sim.Pool[txItem]
	hdrs  *sim.Pool[header]

	// ackInfo holds upper-layer payloads to piggyback on pending ACKs,
	// keyed by (source, sequence) of the data frame being acknowledged.
	// Lazily allocated: most stations never piggyback anything.
	ackInfo map[ackKey]any

	idleSink IdleSink
	obs      Observer
	stats    Stats
}

// Timer dispatchers shared by every station: the events carry the MAC as
// their argument, so constructing a station allocates no timer closures.
func macDifsDone(x any)    { x.(*MAC).difsDone() }
func macBackoffDone(x any) { x.(*MAC).backoffDone() }
func macNavExpire(x any) {
	m := x.(*MAC)
	m.navEv = nil
	m.tryContend()
}
func macTxEnd(x any) {
	m := x.(*MAC)
	m.txEndEv = nil
	m.inTx = false
	m.txDone(m.cur)
}
func macAckTimeout(x any) {
	m := x.(*MAC)
	m.ackEv = nil
	m.waitingAck = false
	m.retry(m.cur)
}
func macFireAck(x any) {
	m := x.(*MAC)
	pa := m.pendingAcks[0]
	n := copy(m.pendingAcks, m.pendingAcks[1:])
	m.pendingAcks = m.pendingAcks[:n]
	m.sendAck(pa.src, pa.seq)
}
func macAckSent(x any) {
	m := x.(*MAC)
	if m.ackHdr != nil {
		m.releaseHeader(m.ackHdr)
		m.ackHdr = nil
	}
	m.ackPending--
	m.afterAck()
}

type ackKey struct {
	src phy.NodeID
	seq uint64
}

// New creates a MAC for node id, attaching it to the channel.
func New(eng *sim.Engine, ch *phy.Channel, id phy.NodeID, r *radio.Radio, upper Upper) *MAC {
	m := sim.ArenaGrab[MAC](eng, "mac.mac")
	*m = MAC{
		eng:        eng,
		ch:         ch,
		id:         id,
		radio:      r,
		upper:      upper,
		cw:         cwMin,
		lastDecode: -1,
		lastSeq:    sim.ArenaSlice[uint64](eng, "mac.lastseq", len(ch.Neighbors(id))),
		items:      sim.ArenaPool[txItem](eng, "mac.item"),
		hdrs:       sim.ArenaPool[header](eng, "mac.hdr"),
	}
	ch.Attach(id, r, m)
	r.Subscribe(m)
	return m
}

// newHeader takes a header from the run's pool and fills it.
func (m *MAC) newHeader(kind frameKind, seq uint64, payload any) *header {
	h := m.hdrs.Get()
	h.kind, h.seq, h.payload = kind, seq, payload
	return h
}

// releaseHeader recycles a header once every receiver has consumed it
// (channel delivery is synchronous and precedes the sender's completion
// timers at the same instant).
func (m *MAC) releaseHeader(h *header) { m.hdrs.Put(h) }

// ID returns the node ID this MAC serves.
func (m *MAC) ID() phy.NodeID { return m.id }

// Stats returns a copy of the station's counters.
func (m *MAC) Stats() Stats { return m.stats }

// AttachToAck piggybacks info on the acknowledgement this station is about
// to send for the data frame it is currently delivering from src (valid
// only while Upper.Deliver runs). It reports whether an ACK is pending for
// src. ESSAT uses this for DTS phase-update requests (§4.3: "the receiver
// may piggyback the request for a phase update in the acknowledgement").
func (m *MAC) AttachToAck(src phy.NodeID, info any) bool {
	if m.ackPending == 0 {
		return false
	}
	pi := m.peerIndex(src)
	if pi < 0 || m.lastSeq[pi] == 0 {
		return false
	}
	if m.ackInfo == nil {
		m.ackInfo = make(map[ackKey]any)
	}
	m.ackInfo[ackKey{src: src, seq: m.lastSeq[pi] - 1}] = info
	return true
}

// peerIndex returns src's position in the station's sorted
// candidate-neighbor list, or -1 when src is not a candidate neighbor
// (which delivery symmetry rules out for decoded frames; -1 only
// defends against direct-driver misuse).
func (m *MAC) peerIndex(src phy.NodeID) int {
	peers := m.ch.Neighbors(m.id)
	lo, hi := 0, len(peers)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if peers[mid] < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(peers) && peers[lo] == src {
		return lo
	}
	return -1
}

// SetObserver installs a MAC decision observer (nil disables).
func (m *MAC) SetObserver(o Observer) { m.obs = o }

// IdleSink is notified whenever the MAC drains: queue empty, no
// transmission in flight, no acknowledgement owed. Safe Sleep and the
// PSM and T-MAC power managers implement it to re-evaluate whether the
// node may sleep; installing one stores an existing object instead of
// allocating a method-value closure.
type IdleSink interface {
	MACIdle()
}

// SetIdleSink installs the station's IdleSink (nil disables).
func (m *MAC) SetIdleSink(s IdleSink) { m.idleSink = s }

// Busy reports whether the MAC has unfinished work: queued or in-flight
// frames, or an acknowledgement it still owes a peer.
func (m *MAC) Busy() bool {
	return len(m.queue) > 0 || m.ackPending > 0 || m.inTx || m.waitingAck
}

// QueueLen returns the number of frames queued, including the one
// currently contending.
func (m *MAC) QueueLen() int { return len(m.queue) }

// Send queues a payload for transmission to dst (or phy.Broadcast).
// cb may be nil. Delivery is attempted as soon as the medium and the
// node's radio allow.
func (m *MAC) Send(dst phy.NodeID, payload any, bytes int, cb SendCallback) {
	if bytes <= 0 {
		panic(fmt.Sprintf("mac: non-positive frame size %d", bytes))
	}
	if dst == m.id {
		panic("mac: send to self")
	}
	item := m.items.Get()
	*item = txItem{dst: dst, payload: payload, bytes: bytes, cb: cb,
		seq: m.nextSeq, enqueued: m.eng.Now()}
	m.nextSeq++
	m.stats.Enqueued++
	m.queue = sim.ArenaAppend(m.eng, "mac.queue", m.queue, item)
	m.tryContend()
}

// --- contention state machine -------------------------------------------

// tryContend starts or resumes the DIFS/backoff procedure when conditions
// allow. It is idempotent: calling it when a timer is already pending or
// transmission is in progress is a no-op.
func (m *MAC) tryContend() {
	if len(m.queue) == 0 || m.inTx || m.waitingAck || m.ackPending > 0 {
		return
	}
	if m.difsEv != nil || m.backoffEv != nil {
		return // already contending
	}
	if !m.radio.IsOn() {
		return // resumes via radioChanged
	}
	if m.carrierBusy() {
		return // resumes via CarrierChanged(false) or NAV expiry
	}
	m.difsEv = m.eng.AfterArg(difs, macDifsDone, m)
}

func (m *MAC) difsDone() {
	m.difsEv = nil
	if m.carrierBusy() {
		// Busy edge and DIFS expiry at the same instant; defer.
		return
	}
	if m.backoff == 0 {
		m.backoff = m.eng.Rand().Intn(m.cw)
	}
	if m.backoff == 0 {
		m.transmit()
		return
	}
	m.backoffStarted = m.eng.Now()
	m.backoffEv = m.eng.AfterArg(time.Duration(m.backoff)*slotTime, macBackoffDone, m)
}

func (m *MAC) backoffDone() {
	m.backoffEv = nil
	m.backoff = 0
	if m.carrierBusy() || !m.radio.CanReceive() {
		// Beat by a carrier edge in the same instant; refreeze with zero
		// remaining slots. The next DIFS does not transmit at once:
		// difsDone draws a fresh backoff because the count is zero.
		m.tryContend()
		return
	}
	m.transmit()
}

// carrierBusy combines physical carrier sense with the NAV.
func (m *MAC) carrierBusy() bool {
	return m.ch.CarrierBusy(m.id) || m.eng.Now() < m.navUntil
}

// setNAV extends the virtual-carrier-sense deadline and arranges to
// resume contention when it expires. An already-armed NAV timer is moved
// in place (O(1), no cancel tombstone) rather than canceled and rebuilt.
func (m *MAC) setNAV(until time.Duration) {
	if until <= m.navUntil {
		return
	}
	m.navUntil = until
	m.freeze()
	if m.navEv != nil {
		m.eng.RescheduleTo(m.navEv, until)
	} else {
		m.navEv = m.eng.ScheduleArg(until, macNavExpire, m)
	}
}

// freeze suspends an in-progress countdown, crediting fully elapsed slots.
func (m *MAC) freeze() {
	if m.difsEv != nil {
		m.eng.Cancel(m.difsEv)
		m.difsEv = nil
	}
	if m.backoffEv != nil {
		m.eng.Cancel(m.backoffEv)
		m.backoffEv = nil
		elapsed := int((m.eng.Now() - m.backoffStarted) / slotTime)
		m.backoff -= elapsed
		if m.backoff < 0 {
			m.backoff = 0
		}
	}
}

func (m *MAC) transmit() {
	item := m.queue[0]
	m.cur = item
	m.inTx = true
	if m.obs != nil {
		m.obs.DataTransmit(m.id, m.eng.Now(), m.navUntil)
	}
	item.hdr = m.newHeader(kindData, item.seq, item.payload)
	dur, _ := m.ch.StartTx(m.id, item.dst, item.bytes, item.hdr)
	m.txEndEv = m.eng.AfterArg(dur, macTxEnd, m)
}

func (m *MAC) txDone(item *txItem) {
	// Every receiver decoded (or lost) the frame during the channel's
	// end-of-transmission processing, which ran before this timer.
	if item.hdr != nil {
		m.releaseHeader(item.hdr)
		item.hdr = nil
	}
	if item.dst == phy.Broadcast {
		m.finish(item, true)
		return
	}
	m.waitingAck = true
	timeout := sifs + m.ch.FrameDuration(ackBytes) + 3*slotTime
	m.ackEv = m.eng.AfterArg(timeout, macAckTimeout, m)
}

func (m *MAC) retry(item *txItem) {
	item.attempts++
	if item.attempts > retryLimit {
		m.finish(item, false)
		return
	}
	m.stats.Retries++
	m.cw *= 2
	if m.cw > cwMax {
		m.cw = cwMax
	}
	m.backoff = m.eng.Rand().Intn(m.cw)
	m.tryContend()
}

func (m *MAC) finish(item *txItem, ok bool) {
	m.cur = nil
	// Shift rather than re-slice so the queue's backing array is reused
	// forever (m.queue[1:] would leak capacity and reallocate on append).
	n := copy(m.queue, m.queue[1:])
	m.queue[n] = nil
	m.queue = m.queue[:n]
	m.cw = cwMin
	m.backoff = 0
	if ok {
		m.stats.Sent++
		m.stats.ServiceTime += m.eng.Now() - item.enqueued
	} else {
		m.stats.Failed++
	}
	if item.cb != nil {
		item.cb.SendDone(ok)
	}
	// The item left the queue and the callback ran: recycle it. The
	// pool drops the payload and callback references, so it does not pin
	// upper-layer objects.
	m.items.Put(item)
	if len(m.queue) > 0 {
		m.tryContend()
	} else {
		m.notifyIdleIfDrained()
	}
}

func (m *MAC) notifyIdleIfDrained() {
	if m.idleSink != nil && !m.Busy() {
		m.idleSink.MACIdle()
	}
}

// --- receive path ---------------------------------------------------------

// FrameDelivered implements phy.Receiver. The channel reports every frame
// this station decoded; frames addressed elsewhere only update the NAV.
func (m *MAC) FrameDelivered(f *phy.Frame) {
	hdr, ok := f.Payload.(*header)
	if !ok {
		panic(fmt.Sprintf("mac: node %d received non-MAC payload %T", m.id, f.Payload))
	}
	m.lastDecode = m.eng.Now()
	if f.Dst != m.id && f.Dst != phy.Broadcast {
		// Overheard unicast data implies a SIFS + ACK exchange follows:
		// defer through it (virtual carrier sense).
		if hdr.kind == kindData {
			m.setNAV(m.eng.Now() + sifs + m.ch.FrameDuration(ackBytes))
		}
		return
	}
	switch hdr.kind {
	case kindAck:
		m.ackReceived(f.Src, hdr.seq, hdr.payload)
	case kindData:
		m.dataReceived(f, hdr)
	default:
		panic(fmt.Sprintf("mac: unknown frame kind %d", hdr.kind))
	}
}

func (m *MAC) ackReceived(src phy.NodeID, seq uint64, info any) {
	if info != nil {
		if s, ok := m.upper.(AckInfoSink); ok {
			s.AckInfo(src, info)
		}
	}
	if !m.waitingAck || len(m.queue) == 0 {
		return // stale ACK
	}
	item := m.queue[0]
	if item.dst != src || item.seq != seq {
		return
	}
	m.waitingAck = false
	if m.ackEv != nil {
		m.eng.Cancel(m.ackEv)
		m.ackEv = nil
	}
	m.finish(item, true)
}

func (m *MAC) dataReceived(f *phy.Frame, hdr *header) {
	dup := false
	if f.Dst == m.id {
		// Unicast: schedule the ACK first so Busy() is accurate for any
		// upper-layer logic that runs during Deliver.
		if pi := m.peerIndex(f.Src); pi >= 0 {
			dup = m.lastSeq[pi] == hdr.seq+1
			m.lastSeq[pi] = hdr.seq + 1
		}
		m.ackPending++
		m.pendingAcks = sim.ArenaAppend(m.eng, "mac.pendingacks", m.pendingAcks, ackKey{src: f.Src, seq: hdr.seq})
		m.eng.AfterArg(sifs, macFireAck, m)
	}
	if dup {
		m.stats.Duplicates++
		return
	}
	m.upper.Deliver(f.Src, hdr.payload, f.Bytes)
}

func (m *MAC) sendAck(dst phy.NodeID, seq uint64) {
	var info any
	if len(m.ackInfo) > 0 {
		if v, ok := m.ackInfo[ackKey{src: dst, seq: seq}]; ok {
			info = v
			delete(m.ackInfo, ackKey{src: dst, seq: seq})
		}
	}
	if !m.radio.IsOn() || m.radio.State() == radio.Tx {
		// Radio gone or busy transmitting at ACK time: drop the ACK; the
		// sender will retransmit.
		m.ackPending--
		m.afterAck()
		return
	}
	m.ackHdr = m.newHeader(kindAck, seq, info)
	dur, _ := m.ch.StartTx(m.id, dst, ackBytes, m.ackHdr)
	m.stats.AcksSent++
	m.eng.AfterArg(dur, macAckSent, m)
}

func (m *MAC) afterAck() {
	if m.ackPending == 0 {
		if len(m.queue) > 0 {
			m.tryContend()
		} else {
			m.notifyIdleIfDrained()
		}
	}
}

// CarrierChanged implements phy.Receiver. The channel delivers edges
// only while the radio is powered, so a sleeping MAC never sees one.
func (m *MAC) CarrierChanged(busy bool) {
	if busy {
		m.freeze()
		return
	}
	// A falling edge with no successful decode at this instant means the
	// reception was corrupted (collision) or its preamble was missed: the
	// medium may still carry an exchange we cannot track, so defer EIFS =
	// SIFS + ACK + DIFS as 802.11 does (protects ACKs from stations that
	// could not read the preceding data frame).
	if m.lastDecode != m.eng.Now() {
		m.setNAV(m.eng.Now() + sifs + m.ch.FrameDuration(ackBytes) + difs)
		return
	}
	m.tryContend()
}

// --- radio gating ----------------------------------------------------------

// RadioStateChanged implements radio.StateListener.
func (m *MAC) RadioStateChanged(old, new radio.State) {
	switch new {
	case radio.Idle:
		if old == radio.TurningOn || old == radio.Off {
			// Woke up (instantly, for zero-delay radios): resume work.
			m.tryContend()
		}
	case radio.TurningOff, radio.Off:
		// Pause: freeze contention, abandon any ACK wait (the frame will
		// be retried on wake without consuming a retry attempt, since the
		// outcome is unknowable while asleep).
		m.freeze()
		if m.ackEv != nil {
			m.eng.Cancel(m.ackEv)
			m.ackEv = nil
			m.waitingAck = false
		}
	}
}
