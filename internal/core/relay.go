package core

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
)

// This file implements the extension sketched in §3 of the paper: "ESSAT
// can also be extended to support other communication patterns such as
// peer-to-peer communication or data dissemination." Both patterns are
// one STS-like slotting: the node at hop h relays message k during the
// slot starting at
//
//	s(k, h) = φ + k·P + l·h
//
// and Safe Sleep wakes it for hop h−1's slot, where l is a per-hop
// allowance. Late copies (MAC contention) are relayed immediately,
// exactly like late reports on the collection path.
//
// The patterns differ only in per-node route data:
//
//   - dissemination runs down the tree from the root: the hop index is
//     the node's current tree level plus one, the next hops are its
//     current children, and every node consumes;
//   - a peer flow runs along a fixed path from Src to Dst (up to the
//     lowest common ancestor, then down): the hop index is the node's
//     path position, the next hop is the next path node, and only Dst
//     consumes.

// DisseminationSpec describes a periodic root-to-leaves flow.
type DisseminationSpec struct {
	// ID must be unique across queries and flows at a node: Safe Sleep
	// bookkeeping shares one ID space. Use a disjoint range.
	ID query.ID
	// Period between messages; Phase is the first message's release time.
	Period time.Duration
	Phase  time.Duration
	// HopAllowance is l, the per-hop relay slot. Zero selects 20 ms.
	HopAllowance time.Duration
}

// P2PSpec describes one periodic peer-to-peer flow.
type P2PSpec struct {
	// ID must be unique, as for DisseminationSpec.
	ID query.ID
	// Src produces a message every Period starting at Phase; Dst consumes.
	Src, Dst query.NodeID
	Period   time.Duration
	Phase    time.Duration
	// HopAllowance is l, the per-hop relay slot. Zero selects 20 ms.
	HopAllowance time.Duration
}

// flowBytes is the on-air size of a flow message.
const flowBytes = 52

// flowKey is the synthetic Safe Sleep child under which a node expects a
// flow's previous hop. Flow IDs are unique, and Safe Sleep reads only
// the times, so one key serves every flow.
const flowKey query.NodeID = -2

// FlowMessage is one flow payload in flight: message Interval of Flow.
//
// Every relay sends its own copy of a message, taken from its pool, and
// puts the copy back once the MAC has reported each of its sends. A
// receiver therefore reads a message only during Handle, and an
// application only during its deliver call: neither may keep it.
type FlowMessage struct {
	Flow     query.ID
	Interval int

	// fl is the sending relay's flow, next the hops the copy goes to
	// (fixed when it is forwarded), and sends how many of its MAC sends
	// have not completed.
	fl    *flow
	next  []query.NodeID
	sends int
}

// FlowStats counts one flow's outcomes at one node.
type FlowStats struct {
	// Originated counts messages this node released as the flow's source.
	Originated uint64
	// Consumed counts messages accepted from the network and consumed.
	Consumed uint64
	// Forwarded counts next-hop deliveries confirmed by the MAC.
	Forwarded uint64
	// ForwardFailures counts next-hop deliveries that exhausted retries.
	ForwardFailures uint64
	// Late counts messages that arrived after this node's own slot.
	Late uint64
	// LatencySum accumulates release→consumption latency over Consumed.
	LatencySum time.Duration
}

// RelayEnv is the node context a Relay needs: the downward topology view
// plus a send path. The node package's Node satisfies it.
type RelayEnv interface {
	Env
	// Level returns the node's current hop distance from the root.
	Level() int
	// Children returns the node's current tree children.
	Children() []query.NodeID
	// SendData transmits a payload to a neighbor; cb, which may be nil,
	// reports MAC-level success.
	SendData(dst query.NodeID, payload any, bytes int, cb mac.SendCallback)
}

// flow is one registered flow at one node.
type flow struct {
	r             *Relay
	id            query.ID
	period, phase time.Duration
	hop           time.Duration // l
	// path is a peer flow's route (Src..Dst) and pos this node's index
	// on it, -1 off the path; a dissemination flow has no path.
	path []query.NodeID
	pos  int
	// seen holds k+1 for the last accepted interval k of each residue
	// mod 8: the dedup window against copies handed off twice.
	seen [8]int
	// k is the next message the source releases.
	k     int
	stats FlowStats
}

// SendDone implements mac.SendCallback: a relay's copy is the
// completion callback of its own sends, so relaying one costs no
// closure. The last completion returns the copy to its relay's pool.
func (m *FlowMessage) SendDone(ok bool) {
	if ok {
		m.fl.stats.Forwarded++
	} else {
		m.fl.stats.ForwardFailures++
	}
	m.sends--
	if m.sends == 0 {
		m.fl.r.release(m)
	}
}

// flowRelease is the source's release dispatcher, shared by every flow:
// the event carries the flow.
func flowRelease(x any) {
	fl := x.(*flow)
	fl.r.generate(fl)
}

// flowSend is the relay-slot dispatcher, shared by every flow: the event
// carries the relay's copy, and sends it to each of its next hops.
func flowSend(x any) {
	m := x.(*FlowMessage)
	fl := m.fl
	r := fl.r
	// Count every send before making any, so no completion can return
	// the copy to the pool while the loop still reads it.
	m.sends = len(m.next)
	for _, c := range m.next {
		r.env.SendData(c, m, flowBytes, m)
	}
	if r.ss != nil {
		r.ss.UpdateNextSend(fl.id, fl.slot(m.Interval+1, r.hopIndex(fl)))
	}
}

// slot returns s(k, h), the start of hop h's relay slot for message k.
func (fl *flow) slot(k, h int) time.Duration {
	return fl.phase + time.Duration(k)*fl.period + time.Duration(h)*fl.hop
}

// Relay runs the §3 flows at one node: the source releases a message
// every period, and every other node on the route relays the previous
// hop's copy in its own slot, with Safe Sleep scheduled around them.
type Relay struct {
	eng     *sim.Engine
	env     RelayEnv
	ss      *SafeSleep
	deliver func(*FlowMessage)
	flows   []*flow
	// free holds this relay's copies whose sends have all completed.
	free []*FlowMessage
}

// NewRelay creates the flow handler. deliver, which may be nil, receives
// every message this node consumes, in acceptance order (the
// "application"); the message is valid only during the call. The relay,
// its flows and its message copies come from eng's arena.
func NewRelay(eng *sim.Engine, env RelayEnv, ss *SafeSleep, deliver func(*FlowMessage)) *Relay {
	r := sim.ArenaGrab[Relay](eng, "core.relay")
	*r = Relay{eng: eng, env: env, ss: ss, deliver: deliver}
	return r
}

// newFlow returns a zeroed flow of this relay.
func (r *Relay) newFlow() *flow {
	fl := sim.ArenaGrab[flow](r.eng, "core.flow")
	fl.r = r
	return fl
}

// message returns a copy of message k of fl from the relay's pool.
func (r *Relay) message(fl *flow, k int) *FlowMessage {
	m := sim.TakeLast(&r.free)
	if m == nil {
		m = sim.ArenaGrab[FlowMessage](r.eng, "core.flowmsg")
	}
	*m = FlowMessage{Flow: fl.id, Interval: k, fl: fl}
	return m
}

// release returns a copy to the relay's pool.
func (r *Relay) release(m *FlowMessage) {
	*m = FlowMessage{}
	r.free = sim.ArenaAppend(r.eng, "core.flowmsg.free", r.free, m)
}

// Stats returns a copy of flow id's counters at this node, zero for an
// unknown flow.
func (r *Relay) Stats(id query.ID) FlowStats {
	if fl := r.find(id); fl != nil {
		return fl.stats
	}
	return FlowStats{}
}

func (r *Relay) find(id query.ID) *flow {
	for _, fl := range r.flows {
		if fl.id == id {
			return fl
		}
	}
	return nil
}

// Disseminate installs a root-to-leaves flow.
func (r *Relay) Disseminate(spec DisseminationSpec) error {
	fl := r.newFlow()
	fl.id, fl.period, fl.phase, fl.hop = spec.ID, spec.Period, spec.Phase, spec.HopAllowance
	return r.register(fl)
}

// Peer installs a peer-to-peer flow along path, which the caller routes
// through the tree from Src to Dst. Nodes off the path ignore the flow.
func (r *Relay) Peer(spec P2PSpec, path []query.NodeID) error {
	if spec.Src == spec.Dst {
		return fmt.Errorf("flow %d: src == dst", spec.ID)
	}
	if len(path) < 2 || path[0] != spec.Src || path[len(path)-1] != spec.Dst {
		return fmt.Errorf("flow %d: path must run src→dst", spec.ID)
	}
	fl := r.newFlow()
	fl.id, fl.period, fl.phase, fl.hop = spec.ID, spec.Period, spec.Phase, spec.HopAllowance
	fl.path, fl.pos = path, -1
	for i, id := range path {
		if id == r.env.Self() {
			fl.pos = i
			break
		}
	}
	return r.register(fl)
}

// register validates fl and, at the source, schedules its releases;
// elsewhere on the route it arms the Safe Sleep reception schedule.
func (r *Relay) register(fl *flow) error {
	switch {
	case fl.period <= 0:
		return fmt.Errorf("flow %d: period must be positive", fl.id)
	case fl.phase < 0:
		return fmt.Errorf("flow %d: negative phase", fl.id)
	case r.find(fl.id) != nil:
		return fmt.Errorf("flow %d: already registered", fl.id)
	}
	if fl.hop <= 0 {
		fl.hop = 20 * time.Millisecond
	}
	r.flows = sim.ArenaAppend(r.eng, "core.relay.flows", r.flows, fl)
	switch {
	case fl.pos < 0: // off the path
	case fl.path == nil && r.env.IsRoot(), fl.path != nil && fl.pos == 0:
		r.eng.ScheduleArg(fl.phase, flowRelease, fl)
	default:
		r.armReceive(fl, 0)
	}
	return nil
}

// hopIndex is h: the live tree level plus one, or the path position.
func (r *Relay) hopIndex(fl *flow) int {
	if fl.path == nil {
		return r.env.Level() + 1
	}
	return fl.pos
}

// nextHops returns the current children, or the next path node (none at
// the destination).
func (r *Relay) nextHops(fl *flow) []query.NodeID {
	if fl.path == nil {
		return r.env.Children()
	}
	next := fl.path[fl.pos+1:]
	if len(next) > 1 {
		next = next[:1]
	}
	return next
}

// consumes reports whether this node is one of the flow's consumers.
func (fl *flow) consumes() bool { return fl.path == nil || fl.pos == len(fl.path)-1 }

// armReceive expects hop h−1's copy of message k at its slot.
func (r *Relay) armReceive(fl *flow, k int) {
	if r.ss != nil {
		r.ss.UpdateNextReceive(fl.id, flowKey, fl.slot(k, r.hopIndex(fl)-1))
	}
}

// generate runs at the source: release message fl.k and relay it.
func (r *Relay) generate(fl *flow) {
	k := fl.k
	fl.k++
	r.eng.ScheduleArg(fl.slot(k+1, 0), flowRelease, fl)
	fl.stats.Originated++
	m := r.message(fl, k)
	if fl.consumes() && r.deliver != nil {
		r.deliver(m)
	}
	r.forward(m)
}

// Handle processes a flow message received from the previous hop.
func (r *Relay) Handle(msg *FlowMessage) {
	fl := r.find(msg.Flow)
	if fl == nil || fl.pos < 0 {
		return
	}
	k := msg.Interval
	if fl.seen[k%8] == k+1 {
		return // duplicate via re-parent handoff
	}
	fl.seen[k%8] = k + 1
	now := r.eng.Now()
	if now > fl.slot(k, r.hopIndex(fl)) {
		fl.stats.Late++
	}
	if fl.consumes() {
		fl.stats.Consumed++
		fl.stats.LatencySum += now - fl.slot(k, 0)
		if r.deliver != nil {
			r.deliver(msg)
		}
	}
	r.armReceive(fl, k+1)
	r.forward(r.message(fl, k))
}

// forward sends the relay's copy m to the next hops at this node's
// slot, immediately if the slot already passed. The hops are fixed now,
// not at the slot.
func (r *Relay) forward(m *FlowMessage) {
	fl := m.fl
	m.next = r.nextHops(fl)
	if len(m.next) == 0 {
		r.release(m)
		return
	}
	sendAt := fl.slot(m.Interval, r.hopIndex(fl))
	if now := r.eng.Now(); sendAt < now {
		sendAt = now
	}
	if r.ss != nil {
		r.ss.UpdateNextSend(fl.id, sendAt)
	}
	r.eng.ScheduleArg(sendAt, flowSend, m)
}
