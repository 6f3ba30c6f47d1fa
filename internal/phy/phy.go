// Package phy simulates the shared wireless channel: frame serialization
// at the channel bitrate, a pluggable propagation model (unit-disc by
// default; see Propagation), per-receiver collision detection, and
// carrier sensing.
//
// The model is intentionally at the granularity a CSMA/CA MAC needs:
//
//   - A frame occupies the channel at every node within range of the
//     transmitter for its full serialization time.
//   - A node receives a frame only if its radio was Idle when the frame
//     started; a second overlapping frame at the same receiver corrupts
//     the reception (no capture effect).
//   - Carrier sense reports whether any in-range transmission is ongoing;
//     like a real radio, a node only senses while its radio is powered.
//
// Propagation delay over ≤500 m is under 2 µs — three orders of magnitude
// below the slot time — and is ignored, as in most WSN simulations.
package phy

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// NodeID aliases the topology node identifier: the channel, MAC and upper
// layers all share one ID space.
type NodeID = topology.NodeID

// Broadcast is the destination address for frames delivered to every
// listening neighbor.
const Broadcast NodeID = -1

// Frame is one unit of channel occupancy.
//
// Frames are pooled by the channel: a delivered *Frame is valid only for
// the duration of the FrameDelivered callback and must not be retained
// (copy it if needed). The MAC consumes frames synchronously, so this
// only constrains direct channel users.
type Frame struct {
	// ID is unique per transmission attempt (retransmissions get new IDs).
	ID uint64
	// Src is the transmitting node.
	Src NodeID
	// Dst is the intended receiver, or Broadcast.
	Dst NodeID
	// Bytes is the on-air size of the frame.
	Bytes int
	// Payload is the MAC-layer content; the channel does not inspect it.
	Payload any
}

// Receiver is the MAC-side interface for channel callbacks.
type Receiver interface {
	// FrameDelivered is invoked for every frame this node decoded in full
	// without collision — including unicast frames addressed to other
	// nodes, which a CSMA/CA MAC uses for virtual carrier sense (NAV).
	// The receiver must check Frame.Dst itself.
	FrameDelivered(f *Frame)
	// CarrierChanged signals the rising (busy=true) and falling edge of
	// channel energy audible at this node. Edges reach only a powered
	// radio (Idle, Rx or Tx): a node that sleeps or wakes mid-frame sees
	// no edge for that change and must read Channel.CarrierBusy instead.
	CarrierChanged(busy bool)
}

// Observer is notified of channel activity, synchronously and in event
// order. Observers must be pure — no scheduling, no state mutation, no
// random draws — so an observed run stays byte-identical to an
// unobserved one. The invariant auditor (internal/check) uses TxStarted
// to verify no frame leaves a sleeping or crashed radio, and both hooks
// to fold channel activity into the trace digest.
type Observer interface {
	// TxStarted fires at the start of every transmission, before the
	// source radio enters Tx: state is the radio state at that instant
	// and enabled whether the station is alive on the channel.
	TxStarted(f *Frame, state radio.State, enabled bool)
	// Delivered fires for every successful frame decode at dst, before
	// the receiver's FrameDelivered callback.
	Delivered(f *Frame, dst NodeID)
}

// Stats counts channel-level outcomes.
type Stats struct {
	// Transmissions is the number of frames put on the air.
	Transmissions uint64
	// Deliveries is the number of successful frame deliveries to their
	// addressees (a broadcast may count several times, once per receiver).
	Deliveries uint64
	// Overheard counts decoded frames addressed to someone else.
	Overheard uint64
	// Collisions is the number of receptions corrupted by overlap.
	Collisions uint64
	// RandomDrops is the number of deliveries suppressed by loss injection.
	RandomDrops uint64
	// LinkDrops is the number of deliveries suppressed by per-link loss
	// (the dynamics layer's link-degradation injector).
	LinkDrops uint64
	// FadeDrops is the number of deliveries suppressed by the propagation
	// model's per-link decode verdict (gray-zone models; the default disc
	// model never drops).
	FadeDrops uint64
	// MissedAsleep is the number of frame arrivals at a receiver whose
	// radio could not receive (off, transitioning, or mid-reception of
	// the same frame start).
	MissedAsleep uint64
	// BytesSent is the total payload bytes put on the air.
	BytesSent uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Transmissions += o.Transmissions
	s.Deliveries += o.Deliveries
	s.Overheard += o.Overheard
	s.Collisions += o.Collisions
	s.RandomDrops += o.RandomDrops
	s.LinkDrops += o.LinkDrops
	s.FadeDrops += o.FadeDrops
	s.MissedAsleep += o.MissedAsleep
	s.BytesSent += o.BytesSent
}

// activeTx is one in-flight transmission. The struct embeds its Frame
// and its owning channel so the completion event can carry the struct
// itself (no per-transmission closure); the whole footprint is recycled
// through the channel's freelist and the steady state of StartTx is
// allocation-free.
type activeTx struct {
	frame Frame
	ch    *Channel
	// slot is this transmission's index in ch.active, so endTx removes
	// it in O(1).
	slot int
}

// activeTxEnd is the completion dispatcher shared by every transmission.
func activeTxEnd(x any) {
	tx := x.(*activeTx)
	tx.ch.endTx(tx)
}

type station struct {
	id    NodeID
	radio *radio.Radio
	rx    Receiver
	// state mirrors radio.State(): a transmission's per-neighbour loop
	// reads it from this dense row instead of loading a sleeping
	// neighbour's radio and MAC. The station is the radio's first
	// subscriber, so the mirror is current before any other listener
	// can react to a state change.
	state   radio.State
	enabled bool
	// disabled marks a permanent Disable (node death): unlike a
	// Suspend, it can never be Resumed.
	disabled bool

	carriers  int       // in-range ongoing transmissions
	receiving *activeTx // frame this station is locked onto
	corrupted bool      // receiving frame got hit by overlap
}

// linkKey identifies one directed link for per-link loss injection.
type linkKey struct {
	src, dst NodeID
}

// lossRow is one degraded link and its drop probability.
type lossRow struct {
	link linkKey
	p    float64
}

// Channel is the shared medium connecting all attached stations.
type Channel struct {
	eng      *sim.Engine
	topo     *topology.Topology
	lossRate float64
	// stations is a dense, by-value (SoA-style) table indexed by NodeID:
	// one cache-friendly slab instead of N pointer-linked objects. It is
	// sized once at construction and never grows, so interior pointers
	// (&c.stations[i]) stay valid for the run. Arena-backed when the
	// engine carries an arena.
	stations []station
	nextID   uint64
	stats    Stats
	obs      Observer
	// prop is the propagation model; discFast marks the unit-disc
	// default, whose neighbor-candidate graph already equals the
	// deliverable set, so the per-delivery verdict is skipped entirely.
	prop     Propagation
	discFast bool
	// linkLoss holds per-directed-link drop probabilities (dynamics
	// layer), sorted by link, in rows from the arena, so a warm run's
	// loss ramp allocates nothing; empty costs nothing on the delivery
	// path.
	linkLoss []lossRow
	// active tracks in-flight transmissions so Resume can rebuild a
	// returning station's carrier count. It holds every transmission on
	// the channel, so it grows with N: a mean of 293 (max 1,095) on the
	// 10,000-node tier. Each entry's slot is its index; order is
	// irrelevant, since Resume only counts.
	active []*activeTx
	// freeTx recycles activeTx structs (frame + completion callback);
	// bounded by the peak number of concurrent transmissions.
	freeTx []*activeTx
}

// The paper's channel rate: 1 Mbps with a 96 µs PHY preamble (802.11
// short preamble) as fixed per-frame airtime.
const (
	bitRate          = 1_000_000 // bits per second
	perFrameOverhead = 96 * time.Microsecond
)

// Config parameterizes the channel.
type Config struct {
	// LossRate is an independent probability of dropping each otherwise
	// successful delivery, for transient-loss experiments. Zero disables.
	LossRate float64
	// Propagation selects the delivery model; nil selects the unit-disc
	// model, the paper's channel. Gray-zone models veto individual
	// deliveries by distance-dependent probability, composing with
	// LossRate and the per-link loss injection.
	Propagation Propagation
}

// NewChannel creates a channel over the given topology. Stations must be
// attached for every node before the simulation starts. A loss rate
// out of range is returned as an error, not panicked, so a bad scenario
// spec surfaces as a build failure.
func NewChannel(eng *sim.Engine, topo *topology.Topology, cfg Config) (*Channel, error) {
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("phy: loss rate must be in [0,1), got %g", cfg.LossRate)
	}
	prop := cfg.Propagation
	if prop == nil {
		prop = discModel{}
	}
	c := sim.ArenaGrab[Channel](eng, "phy.channel")
	*c = Channel{
		eng:      eng,
		topo:     topo,
		lossRate: cfg.LossRate,
		stations: sim.ArenaSlice[station](eng, "phy.stations", topo.NumNodes()),
		prop:     prop,
		discFast: IsDisc(prop),
		// Seed the tracking and recycling lists with arena-backed capacity
		// for the in-flight population of small deployments; large ones
		// grow them by appending (at 10,000 nodes a mean of 293 frames
		// are in flight, at most 1,095).
		active: sim.ArenaSlice[*activeTx](eng, "phy.active", 8)[:0],
		freeTx: sim.ArenaSlice[*activeTx](eng, "phy.freetx", 8)[:0],
	}
	return c, nil
}

// Propagation returns the channel's propagation model.
func (c *Channel) Propagation() Propagation { return c.prop }

// Attach registers node id with its radio and MAC receiver. The channel
// subscribes to radio state changes so that a radio powering down
// mid-reception drops the frame, and mirrors the state in the station.
//
// Attach must run before anything else subscribes to r (mac.New attaches
// first): the station is then the radio's first listener, so its mirror
// is updated before a later listener can react to the change — by
// transmitting, say — and read a stale state.
func (c *Channel) Attach(id NodeID, r *radio.Radio, rx Receiver) {
	st := &c.stations[id]
	if st.rx != nil {
		panic(fmt.Sprintf("phy: node %d attached twice", id))
	}
	*st = station{id: id, radio: r, rx: rx, state: r.State(), enabled: true}
	r.Subscribe(st)
}

// RadioStateChanged implements radio.StateListener: it updates the state
// mirror, and leaving a listening state mid-frame loses the frame.
func (st *station) RadioStateChanged(old, new radio.State) {
	st.state = new
	if st.receiving != nil && new != radio.Rx {
		st.receiving = nil
		st.corrupted = false
	}
}

// Stats returns a copy of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// SetObserver installs a channel activity observer (nil disables).
func (c *Channel) SetObserver(o Observer) { c.obs = o }

// SetLinkLoss sets the drop probability of the directed link src→dst.
// p <= 0 removes the entry; p must be below 1 or an error is returned.
// The dynamics layer uses this for deterministic link-degradation ramps.
func (c *Channel) SetLinkLoss(src, dst NodeID, p float64) error {
	if p >= 1 {
		return fmt.Errorf("phy: link loss must be below 1, got %g", p)
	}
	k := linkKey{src: src, dst: dst}
	i, found := c.lossRow(k)
	switch {
	case found && p <= 0:
		c.linkLoss = slices.Delete(c.linkLoss, i, i+1)
	case found:
		c.linkLoss[i].p = p
	case p > 0:
		c.linkLoss = sim.ArenaAppend(c.eng, "phy.linkloss", c.linkLoss, lossRow{})
		copy(c.linkLoss[i+1:], c.linkLoss[i:])
		c.linkLoss[i] = lossRow{link: k, p: p}
	}
	return nil
}

// lossRow returns the index of k's row, or where it would go, and
// whether it is there. Rows are sorted by source, then destination.
func (c *Channel) lossRow(k linkKey) (int, bool) {
	return slices.BinarySearchFunc(c.linkLoss, k, func(r lossRow, k linkKey) int {
		if c := cmp.Compare(r.link.src, k.src); c != 0 {
			return c
		}
		return cmp.Compare(r.link.dst, k.dst)
	})
}

// Neighbors returns the candidate-neighbor list of node id, sorted
// ascending — the exact set of stations frames from id can reach (and,
// by range symmetry, the set id can receive from). MACs use it to size
// and index per-peer bookkeeping by neighbor position instead of by
// the full station ID space. The returned slice is shared, read-only.
func (c *Channel) Neighbors(id NodeID) []NodeID { return c.topo.Neighbors(id) }

// FrameDuration returns the airtime of a frame with the given payload size.
func (c *Channel) FrameDuration(bytes int) time.Duration {
	bits := int64(bytes) * 8
	return perFrameOverhead + time.Duration(bits*int64(time.Second)/bitRate)
}

// CarrierBusy reports whether node id currently senses energy on the
// channel. A powered-down radio senses nothing.
func (c *Channel) CarrierBusy(id NodeID) bool {
	st := &c.stations[id]
	switch st.state {
	case radio.Tx:
		return true
	case radio.Idle, radio.Rx:
		return st.carriers > 0
	}
	return false
}

// powered reports whether the station's radio is on (Idle, Rx or Tx),
// the states in which it hears carrier edges.
func (st *station) powered() bool {
	return st.state == radio.Idle || st.state == radio.Rx || st.state == radio.Tx
}

// Disable removes node id from the channel permanently (node failure):
// it no longer receives frames or generates carrier at others. Its radio
// is shut down for good, so stale wake-ups cannot resurrect the node.
func (c *Channel) Disable(id NodeID) {
	st := &c.stations[id]
	st.enabled = false
	st.disabled = true
	st.receiving = nil
	st.radio.Shutdown()
}

// Enabled reports whether node id is still alive on the channel.
func (c *Channel) Enabled(id NodeID) bool { return c.stations[id].enabled }

// Disabled reports whether node id was permanently disabled (node
// death); a Suspended node is not Disabled and may be Resumed.
func (c *Channel) Disabled(id NodeID) bool { return c.stations[id].disabled }

// Suspend removes node id from the channel temporarily (a crash the
// dynamics layer may later recover): it stops receiving frames and
// generating carrier, and its radio hardware goes down until Resume.
// Unlike Disable, the outage is reversible.
func (c *Channel) Suspend(id NodeID) {
	st := &c.stations[id]
	st.enabled = false
	st.receiving = nil
	st.corrupted = false
	st.carriers = 0
	st.radio.Shutdown()
}

// Resume returns a suspended node to the channel: its radio hardware is
// restored (still off — the caller wakes it) and its carrier count is
// rebuilt from the transmissions in flight at this instant, since
// carrier edges during the outage were not delivered to it. A
// permanently Disabled node cannot be resumed.
func (c *Channel) Resume(id NodeID) {
	st := &c.stations[id]
	if st.enabled || st.disabled {
		return
	}
	st.enabled = true
	st.radio.Restore()
	st.carriers = 0
	for _, tx := range c.active {
		if c.topo.Connected(tx.frame.Src, id) {
			st.carriers++
		}
	}
}

// StartTx puts a frame on the air from src and returns its airtime. The
// source radio must be powered. Delivery and carrier bookkeeping at every
// in-range station happen automatically; the transmission completes (and
// the source radio returns to Idle) after the returned duration.
func (c *Channel) StartTx(src NodeID, dst NodeID, bytes int, payload any) (time.Duration, *Frame) {
	st := &c.stations[src]
	if !st.enabled {
		panic(fmt.Sprintf("phy: disabled node %d transmitting", src))
	}
	tx := c.takeTx()
	tx.frame = Frame{ID: c.nextID, Src: src, Dst: dst, Bytes: bytes, Payload: payload}
	c.nextID++
	dur := c.FrameDuration(bytes)

	c.stats.Transmissions++
	c.stats.BytesSent += uint64(bytes)
	if c.obs != nil {
		c.obs.TxStarted(&tx.frame, st.radio.State(), st.enabled)
	}

	st.radio.BeginTx()
	c.arrive(tx, dur)
	return dur, &tx.frame
}

// arrive puts tx on the air at every attached station in range of its
// source for dur: the carrier rises, an idle receiver locks on, and the
// completion event is scheduled. Per neighbour it reads only the dense
// station row unless that neighbour's radio is on.
func (c *Channel) arrive(tx *activeTx, dur time.Duration) {
	tx.slot = len(c.active)
	c.active = sim.ArenaAppend(c.eng, "phy.active.grow", c.active, tx)
	for _, nb := range c.topo.Neighbors(tx.frame.Src) {
		rst := &c.stations[nb]
		if !rst.enabled {
			continue
		}
		rst.carriers++
		if rst.carriers == 1 && rst.powered() {
			rst.rx.CarrierChanged(true)
		}
		switch {
		case rst.receiving != nil:
			// Already locked onto another frame: that reception is now
			// corrupted. The new frame is lost at this receiver too.
			rst.corrupted = true
			c.stats.Collisions++
		case rst.state == radio.Idle:
			rst.receiving = tx
			rst.corrupted = false
			rst.radio.BeginRx()
		default:
			c.stats.MissedAsleep++
		}
	}
	c.eng.AfterArg(dur, activeTxEnd, tx)
}

// takeTx returns a recycled (or fresh) transmission owned by c.
func (c *Channel) takeTx() *activeTx {
	tx := sim.TakeLast(&c.freeTx)
	if tx == nil {
		tx = sim.ArenaGrab[activeTx](c.eng, "phy.tx")
		tx.ch = c
	}
	return tx
}

func (c *Channel) endTx(tx *activeTx) {
	src := tx.frame.Src
	if st := &c.stations[src]; st.radio.State() == radio.Tx {
		st.radio.EndTx()
	}
	for _, nb := range c.topo.Neighbors(src) {
		rst := &c.stations[nb]
		if !rst.enabled {
			continue
		}
		rst.carriers--
		if rst.receiving == tx {
			corrupted := rst.corrupted
			rst.receiving = nil
			rst.corrupted = false
			// Deliver before EndRx: the MAC records the ACK it owes during
			// delivery, so a sleep scheduler re-evaluating on the Rx→Idle
			// transition sees the pending work and keeps the radio on.
			if !corrupted {
				c.deliver(rst, &tx.frame)
			}
			rst.radio.EndRx()
		}
		if rst.carriers == 0 && rst.powered() {
			rst.rx.CarrierChanged(false)
		}
	}
	// Every station has detached from this transmission: swap-remove it
	// from the in-flight list and recycle it. The payload reference is
	// dropped so the pool does not pin MAC headers.
	last := len(c.active) - 1
	moved := c.active[last]
	c.active[tx.slot] = moved
	moved.slot = tx.slot
	c.active[last] = nil
	c.active = c.active[:last]
	tx.frame.Payload = nil
	c.freeTx = sim.ArenaAppend(c.eng, "phy.freetx.grow", c.freeTx, tx)
}

func (c *Channel) deliver(rst *station, f *Frame) {
	// Propagation verdict first: link quality decides the decode before
	// any injected loss. The disc default skips this entirely — its
	// candidate graph equals the deliverable set — and models only draw
	// rng inside their gray zone, so hard regions stay deterministic.
	if !c.discFast {
		d := c.topo.Position(f.Src).Dist(c.topo.Position(rst.id))
		switch p := c.prop.DeliveryProb(d, c.topo.Range()); {
		case p >= 1:
		case p <= 0 || c.eng.Rand().Float64() >= p:
			c.stats.FadeDrops++
			return
		}
	}
	if c.lossRate > 0 && c.eng.Rand().Float64() < c.lossRate {
		c.stats.RandomDrops++
		return
	}
	if len(c.linkLoss) > 0 {
		if i, ok := c.lossRow(linkKey{src: f.Src, dst: rst.id}); ok && c.eng.Rand().Float64() < c.linkLoss[i].p {
			c.stats.LinkDrops++
			return
		}
	}
	if f.Dst == Broadcast || f.Dst == rst.id {
		c.stats.Deliveries++
	} else {
		c.stats.Overheard++
	}
	if c.obs != nil {
		c.obs.Delivered(f, rst.id)
	}
	rst.rx.FrameDelivered(f)
}
