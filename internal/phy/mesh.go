// Cross-shard channel routing for the sharded parallel engine.
//
// Under parallel execution the deployment is cut into K spatial shards;
// each shard gets its own engine and its own Channel ("lane") sharing
// the one topology, with only the shard's stations attached. A
// transmission whose source has candidate neighbors in other shards is
// additionally routed through the Mesh: a deep-copied frame is dropped
// into the per-shard-pair outbox, and at the next window barrier the
// runner drains the outboxes — single-threaded, in deterministic
// (arrival, frame ID) order — scheduling a replay on each destination
// lane. The replay raises carrier, locks receivers, and delivers
// exactly like a local transmission, shifted by the mesh latency.
//
// The latency is the conservative lookahead: cross-shard links behave
// as if they had a propagation delay of `latency`, the standard
// federated-simulation approximation (links crossing a federate border
// must carry at least the lookahead). Runs are deterministic for a
// fixed (seed, shard count, latency), independent of GOMAXPROCS and
// worker scheduling; shard count 1 is the unmodified sequential path.
package phy

import (
	"fmt"
	"sort"
	"time"

	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// remoteTx is one cross-shard transmission parked in an outbox: the
// cloned frame plus its arrival instant and airtime at the receiving
// lane.
type remoteTx struct {
	at    time.Duration
	dur   time.Duration
	frame Frame
}

// remoteStart carries an inbound transmission from the barrier exchange
// to its start event on the destination lane's engine.
type remoteStart struct {
	ch    *Channel
	dur   time.Duration
	frame Frame
}

// remoteStartFire is the shared dispatcher for inbound cross-shard
// transmissions.
func remoteStartFire(x any) {
	r := x.(*remoteStart)
	r.ch.startRemote(r)
}

// Mesh connects the per-shard channel lanes of one parallel run.
type Mesh struct {
	lanes   []*Channel
	part    []int32 // NodeID -> lane
	latency time.Duration
	// clone deep-copies a frame payload for transit: sender-side MAC
	// headers and pooled upper payloads are recycled as soon as the
	// sender's completion fires, which under the mesh latency is before
	// the remote delivery.
	clone func(any) any
	// outbox[src][dst] holds the frames lane src produced for lane dst
	// since the last barrier. Only the owning lane's goroutine appends
	// between barriers; the exchange drains single-threaded.
	outbox  [][][]remoteTx
	scratch []remoteTx
}

// NewMesh wires the lanes of one parallel run together. part maps every
// node to its lane; latency is the conservative cross-shard lookahead
// and must be positive; clone must deep-copy any payload that crosses
// (nil keeps payloads aliased, which is only safe for immutable,
// non-pooled payloads). The mesh installs itself into each lane and
// gives each lane a disjoint frame-ID space.
func NewMesh(lanes []*Channel, part []int32, latency time.Duration, clone func(any) any) (*Mesh, error) {
	if len(lanes) < 2 {
		return nil, fmt.Errorf("phy: mesh needs at least 2 lanes, got %d", len(lanes))
	}
	if len(lanes) > 64 {
		return nil, fmt.Errorf("phy: mesh supports at most 64 lanes, got %d", len(lanes))
	}
	if latency <= 0 {
		return nil, fmt.Errorf("phy: mesh latency must be positive, got %v", latency)
	}
	m := &Mesh{
		lanes:   lanes,
		part:    part,
		latency: latency,
		clone:   clone,
		outbox:  make([][][]remoteTx, len(lanes)),
	}
	for i := range m.outbox {
		m.outbox[i] = make([][]remoteTx, len(lanes))
	}
	for i, c := range lanes {
		if c.mesh != nil {
			return nil, fmt.Errorf("phy: lane %d already meshed", i)
		}
		c.mesh = m
		c.lane = int32(i)
		// Disjoint ID spaces keep frame IDs unique run-wide; lane 0
		// starts at 0 so a 1-lane configuration would be bit-compatible
		// with the sequential channel.
		c.nextID = uint64(i) << 48
	}
	return m, nil
}

// Latency returns the mesh's cross-shard lookahead.
func (m *Mesh) Latency() time.Duration { return m.latency }

// route forks a transmission into the outboxes of every other lane that
// holds candidate neighbors of the source. Called from StartTx on the
// owning lane's goroutine.
func (m *Mesh) route(c *Channel, tx *activeTx, dur time.Duration) {
	var mask uint64
	me := c.lane
	for _, nb := range c.neighbors(tx.frame.Src) {
		if l := m.part[nb]; l != me {
			mask |= 1 << uint(l)
		}
	}
	if mask == 0 {
		return
	}
	at := c.eng.Now() + m.latency
	var payload any
	if m.clone != nil {
		payload = m.clone(tx.frame.Payload)
	} else {
		payload = tx.frame.Payload
	}
	for l := 0; mask != 0; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		mask &^= 1 << uint(l)
		f := tx.frame
		f.Payload = payload
		m.outbox[me][l] = append(m.outbox[me][l], remoteTx{at: at, dur: dur, frame: f})
	}
}

// Exchange drains every outbox, scheduling the parked transmissions on
// their destination lanes. It must run single-threaded at a window
// barrier at time `now`; every parked arrival is at or after now by the
// lookahead argument, so the destination engines only ever see
// future-or-present schedules. Arrivals are ordered by (at, frame ID) before
// scheduling, which pins their engine sequence numbers — and therefore
// the whole run — independent of worker interleaving.
func (m *Mesh) Exchange(now time.Duration) {
	for d := range m.lanes {
		buf := m.scratch[:0]
		for s := range m.lanes {
			buf = append(buf, m.outbox[s][d]...)
			m.outbox[s][d] = m.outbox[s][d][:0]
		}
		if len(buf) == 0 {
			continue
		}
		sort.Slice(buf, func(a, b int) bool {
			if buf[a].at != buf[b].at {
				return buf[a].at < buf[b].at
			}
			return buf[a].frame.ID < buf[b].frame.ID
		})
		lane := m.lanes[d]
		for i := range buf {
			lane.scheduleRemote(&buf[i])
		}
		m.scratch = buf
	}
}

// scheduleRemote parks one inbound transmission for its start instant.
func (c *Channel) scheduleRemote(rt *remoteTx) {
	r := sim.TakeLast(&c.freeRemote)
	if r == nil {
		r = sim.ArenaGrab[remoteStart](c.eng, "phy.remote")
	}
	r.ch, r.dur, r.frame = c, rt.dur, rt.frame
	c.eng.ScheduleArg(rt.at, remoteStartFire, r)
}

// startRemote replays a cross-shard transmission on this lane: carrier
// rises at every local station in range of the (remote) source, idle
// receivers lock on, and the completion event delivers — the
// receiver-side half of StartTx, through the same arrive. Source-side
// bookkeeping (radio, stats, TxStarted observation) happened on the
// source lane.
func (c *Channel) startRemote(r *remoteStart) {
	tx := c.takeTx()
	tx.remote = true
	tx.frame = r.frame
	dur := r.dur
	*r = remoteStart{}
	c.freeRemote = append(c.freeRemote, r)

	c.arrive(tx, dur)
}

// CrossShardLookahead derives the default mesh latency for a
// deployment: the DCF interframe space plus the propagation delay over
// the widest candidate link (distance / c). The DIFS term is what makes
// the lookahead usable — raw propagation over sensor ranges is under
// 2 µs — and is physically defensible: no station may react to the
// channel faster than DIFS.
func CrossShardLookahead(t *topology.Topology, difs time.Duration) time.Duration {
	const speedOfLight = 299_792_458.0 // m/s
	prop := time.Duration(t.NeighborRange() / speedOfLight * float64(time.Second))
	if prop < time.Microsecond {
		prop = time.Microsecond
	}
	return difs + prop
}
