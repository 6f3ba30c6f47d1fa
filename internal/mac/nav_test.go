package mac

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/phy"
)

// TestNAVDefersThroughAckExchange: node 0 sends data to node 1 while
// node 2 (in range of 1 but also of 0? on a chain 0-1-2, node 2 hears
// only node 1) — use the star: all mutually in range. A bystander that
// overhears a unicast data frame must not transmit during the SIFS+ACK
// gap even though the physical carrier is idle.
func TestNAVDefersThroughAckExchange(t *testing.T) {
	net := newChain(t, 3, 1, phy.DefaultConfig())
	// Node 1 transmits to node 0; node 2 overhears (1 is its neighbor).
	// Immediately after the data frame ends, node 2 wants to send to 1.
	// Without NAV it would start DIFS at data-end and its frame would
	// overlap node 0's ACK... DIFS (50µs) < SIFS+ACK (10+208µs), so the
	// collision window is real.
	dataEnd := 100*time.Microsecond + net.ch.FrameDuration(52)
	net.eng.Schedule(100*time.Microsecond, func() {
		net.macs[1].Send(0, "data", 52, nil)
	})
	// Queue node 2's frame mid-data so it contends at data end.
	net.eng.Schedule(200*time.Microsecond, func() {
		net.macs[2].Send(1, "interference", 52, nil)
	})
	net.eng.Run(time.Second)

	// Both transfers must succeed: the ACK was protected.
	if net.macs[1].Stats().Sent != 1 {
		t.Fatalf("data send failed: %+v", net.macs[1].Stats())
	}
	if net.macs[2].Stats().Sent != 1 {
		t.Fatalf("bystander send failed: %+v", net.macs[2].Stats())
	}
	// And with zero retries: NAV avoided the collision outright.
	if net.macs[1].Stats().Retries != 0 {
		t.Fatalf("data needed %d retries; NAV should have protected the ACK",
			net.macs[1].Stats().Retries)
	}
	_ = dataEnd
}

// TestEIFSAfterCorruptedReception: two hidden senders collide at the
// middle node; after the corrupted reception ends, the middle node (which
// has its own frame queued) must defer EIFS, not just DIFS.
func TestEIFSAfterCorruptedReception(t *testing.T) {
	net := newChain(t, 4, 2, phy.DefaultConfig())
	// 0 and 2 collide at 1.
	net.eng.Schedule(100*time.Microsecond, func() {
		net.macs[0].Send(1, "a", 52, nil)
		net.macs[2].Send(1, "b", 52, nil)
	})
	// Node 1 has a frame for node 2 queued during the collision.
	var sentAt time.Duration
	net.eng.Schedule(150*time.Microsecond, func() {
		net.macs[1].Send(2, "c", 52, func(ok bool) {
			if ok {
				sentAt = net.eng.Now()
			}
		})
	})
	net.eng.Run(time.Second)
	if sentAt == 0 {
		t.Fatal("node 1's frame never delivered")
	}
	// The corrupted overlap ends ~620µs in; EIFS adds SIFS+ACK+DIFS
	// (~272µs) before node 1 may even start contending. The send must
	// complete no earlier than collision end + EIFS + frame time.
	collisionEnd := 100*time.Microsecond + net.ch.FrameDuration(52)
	eifs := 10*time.Microsecond + net.ch.FrameDuration(14) + 50*time.Microsecond
	if sentAt < collisionEnd+eifs {
		t.Fatalf("node 1 sent at %v, before collision end (%v) + EIFS (%v)",
			sentAt, collisionEnd, eifs)
	}
}

func TestAttachToAckRoundTrip(t *testing.T) {
	net := newChain(t, 2, 3, phy.DefaultConfig())
	type token struct{ V int }

	// Receiver attaches info during Deliver; the sender's upper, an
	// AckInfoSink, must observe it.
	attachOK := false
	net.macs[1].SetUpper(&deliverChecker{f: func() {
		attachOK = net.macs[1].AttachToAck(0, token{V: 42})
	}})
	var got any
	net.macs[0].SetUpper(ackInfoRecorder(func(from phy.NodeID, info any) {
		if from == 1 {
			got = info
		}
	}))

	net.macs[0].Send(1, "data", 52, nil)
	net.eng.Run(time.Second)

	if !attachOK {
		t.Fatal("AttachToAck reported no pending ACK during Deliver")
	}
	tok, ok := got.(token)
	if !ok || tok.V != 42 {
		t.Fatalf("ack info = %v, want token{42}", got)
	}
}

// ackInfoRecorder is an upper that only observes ACK piggybacks.
type ackInfoRecorder func(from phy.NodeID, info any)

func (ackInfoRecorder) Deliver(phy.NodeID, any, int)        {}
func (f ackInfoRecorder) AckInfo(from phy.NodeID, info any) { f(from, info) }

func TestAttachToAckOutsideDeliveryFails(t *testing.T) {
	net := newChain(t, 2, 3, phy.DefaultConfig())
	if net.macs[1].AttachToAck(0, "x") {
		t.Fatal("AttachToAck succeeded with no pending ACK")
	}
}

// TestNAVDoesNotDeadlock: pathological back-to-back overheard traffic
// must still let the deferring node transmit eventually.
func TestNAVStarvationFreedom(t *testing.T) {
	net := newChain(t, 3, 4, phy.DefaultConfig())
	// Node 1 blasts 20 frames to node 0; node 2 overhears everything and
	// has one frame of its own.
	for i := 0; i < 20; i++ {
		net.macs[1].Send(0, i, 52, nil)
	}
	done := false
	net.macs[2].Send(1, "mine", 52, func(ok bool) { done = ok })
	net.eng.Run(time.Second)
	if !done {
		t.Fatal("overhearing node starved by NAV")
	}
}
