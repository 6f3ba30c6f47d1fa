package mac

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/phy"
)

// TestContentionWindowResetAfterSuccess: the CW doubles across retries
// and resets to cwMin once a frame completes, observable through timing:
// after a painful retry sequence, the next uncontended frame must go out
// promptly (small backoff), not with a CWMax-scale delay.
func TestContentionWindowResetAfterSuccess(t *testing.T) {
	net := newChain(t, 2, 9, phy.Config{})
	// First frame to a sleeping receiver: burns all retries with CW
	// growth up to CWMax.
	net.radios[1].TurnOff()
	failed := false
	net.macs[0].Send(1, "doomed", 52, sendFunc(func(ok bool) { failed = !ok }))
	net.eng.Run(2 * time.Second)
	if !failed {
		t.Fatal("precondition: first frame should fail")
	}
	// Receiver wakes; the second frame must complete quickly.
	net.radios[1].TurnOn()
	start := net.eng.Now()
	var doneAt time.Duration
	net.macs[0].Send(1, "easy", 52, sendFunc(func(ok bool) {
		if ok {
			doneAt = net.eng.Now()
		}
	}))
	net.eng.Run(start + time.Second)
	if doneAt == 0 {
		t.Fatal("second frame never delivered")
	}
	// cwMin=32 slots × 20µs = 640µs worst backoff + DIFS + frame + ACK:
	// everything under ~3ms. A stale CWMax window would take up to 20ms.
	if doneAt-start > 3*time.Millisecond {
		t.Fatalf("post-reset frame took %v, contention window not reset", doneAt-start)
	}
}

// TestRetryTimingGrows: the gap between successive retransmission
// attempts should grow (binary exponential backoff), measured at the
// channel by transmission count over time toward a deaf receiver.
func TestRetryTimingGrows(t *testing.T) {
	net := newChain(t, 2, 10, phy.Config{})
	net.radios[1].TurnOff()
	net.macs[0].Send(1, "x", 52, nil)
	// Count transmissions in the first 5ms vs the next 45ms: early
	// attempts cluster (small CW), later ones spread out.
	var early, late uint64
	net.eng.Schedule(5*time.Millisecond, func() { early = net.ch.Stats().Transmissions })
	net.eng.Run(time.Second)
	late = net.ch.Stats().Transmissions
	if early < 2 {
		t.Fatalf("only %d attempts in the first 5ms, want clustered early retries", early)
	}
	if late != uint64(1+retryLimit) {
		t.Fatalf("total attempts = %d, want %d", late, 1+retryLimit)
	}
}

// dataStarts is an Observer recording when a station starts data frames.
type dataStarts []time.Duration

func (d *dataStarts) DataTransmit(_ phy.NodeID, now, _ time.Duration) { *d = append(*d, now) }

// TestDCFExchangeTiming pins the DCF constants through the airtime of
// single frame exchanges on an idle medium: every attempt starts DIFS
// plus a whole number of slots below the contention window after the
// medium went idle, a unicast completes when its ACK ends SIFS after the
// data frame, and an unanswered frame is retried retryLimit times after
// the ACK timeout, the window doubling up to cwMax.
func TestDCFExchangeTiming(t *testing.T) {
	// checkBackoff fails unless gap is DIFS plus [0, cw) whole slots.
	checkBackoff := func(t *testing.T, gap time.Duration, cw int) {
		t.Helper()
		b := gap - difs
		if b < 0 || b%slotTime != 0 || b/slotTime >= time.Duration(cw) {
			t.Fatalf("gap %v is not DIFS plus a backoff of [0, %d) slots", gap, cw)
		}
	}
	// exchange sends one 52 B frame from station 0 to dst at time zero
	// and returns the data-frame start times, the completion time and the
	// channel.
	exchange := func(t *testing.T, seed int64, dst phy.NodeID, deaf bool) (dataStarts, time.Duration, *phy.Channel) {
		net := newChain(t, 2, seed, phy.Config{})
		if deaf {
			net.radios[1].TurnOff()
		}
		var starts dataStarts
		net.macs[0].SetObserver(&starts)
		doneAt := time.Duration(-1)
		net.macs[0].Send(dst, "x", 52, sendFunc(func(bool) { doneAt = net.eng.Now() }))
		net.eng.Run(time.Second)
		if doneAt < 0 {
			t.Fatal("send never completed")
		}
		return starts, doneAt, net.ch
	}

	t.Run("unicast", func(t *testing.T) {
		starts, doneAt, ch := exchange(t, 3, 1, false)
		if len(starts) != 1 {
			t.Fatalf("%d data transmissions, want 1", len(starts))
		}
		checkBackoff(t, starts[0], cwMin)
		if want := starts[0] + ch.FrameDuration(52) + sifs + ch.FrameDuration(ackBytes); doneAt != want {
			t.Fatalf("unicast completed at %v, want %v (data, SIFS, %d B ACK)", doneAt, want, ackBytes)
		}
	})
	t.Run("broadcast", func(t *testing.T) {
		starts, doneAt, ch := exchange(t, 4, phy.Broadcast, false)
		if len(starts) != 1 {
			t.Fatalf("%d data transmissions, want 1", len(starts))
		}
		checkBackoff(t, starts[0], cwMin)
		if want := starts[0] + ch.FrameDuration(52); doneAt != want {
			t.Fatalf("broadcast completed at %v, want %v (no ACK)", doneAt, want)
		}
	})
	t.Run("retries", func(t *testing.T) {
		starts, _, ch := exchange(t, 5, 1, true)
		if len(starts) != 1+retryLimit {
			t.Fatalf("%d data transmissions, want %d", len(starts), 1+retryLimit)
		}
		checkBackoff(t, starts[0], cwMin)
		ackTimeout := sifs + ch.FrameDuration(ackBytes) + 3*slotTime
		cw := cwMin
		for k := 1; k < len(starts); k++ {
			cw = min(2*cw, cwMax)
			checkBackoff(t, starts[k]-starts[k-1]-ch.FrameDuration(52)-ackTimeout, cw)
		}
	})
}

// TestBroadcastDoesNotRetry: broadcast frames are fire-once even when
// nobody hears them.
func TestBroadcastDoesNotRetry(t *testing.T) {
	net := newChain(t, 2, 11, phy.Config{})
	net.radios[1].TurnOff()
	ok := false
	net.macs[0].Send(phy.Broadcast, "bcast", 52, sendFunc(func(b bool) { ok = b }))
	net.eng.Run(time.Second)
	if !ok {
		t.Fatal("broadcast must report success after transmission")
	}
	if got := net.ch.Stats().Transmissions; got != 1 {
		t.Fatalf("broadcast transmitted %d times, want 1", got)
	}
}

// TestInterleavedBidirectionalTraffic: two nodes sending to each other
// simultaneously must both complete (no ACK-direction confusion).
func TestInterleavedBidirectionalTraffic(t *testing.T) {
	net := newChain(t, 2, 12, phy.Config{})
	done := 0
	for i := 0; i < 10; i++ {
		net.macs[0].Send(1, i, 52, sendFunc(func(b bool) {
			if b {
				done++
			}
		}))
		net.macs[1].Send(0, 100+i, 52, sendFunc(func(b bool) {
			if b {
				done++
			}
		}))
	}
	net.eng.Run(2 * time.Second)
	if done != 20 {
		t.Fatalf("%d of 20 bidirectional sends completed", done)
	}
	if len(net.uppers[0].got) != 10 || len(net.uppers[1].got) != 10 {
		t.Fatalf("deliveries: %d and %d, want 10 each",
			len(net.uppers[0].got), len(net.uppers[1].got))
	}
}

// TestQueueLenAndBusyLifecycle tracks the public state accessors through
// a frame's life.
func TestQueueLenAndBusyLifecycle(t *testing.T) {
	net := newChain(t, 2, 13, phy.Config{})
	if net.macs[0].Busy() || net.macs[0].QueueLen() != 0 {
		t.Fatal("fresh MAC should be idle")
	}
	net.macs[0].Send(1, "a", 52, nil)
	net.macs[0].Send(1, "b", 52, nil)
	if net.macs[0].QueueLen() != 2 || !net.macs[0].Busy() {
		t.Fatalf("QueueLen = %d, Busy = %v", net.macs[0].QueueLen(), net.macs[0].Busy())
	}
	net.eng.Run(time.Second)
	if net.macs[0].QueueLen() != 0 || net.macs[0].Busy() {
		t.Fatal("MAC not drained")
	}
}

// TestDeadRadioSilencesStation: after Shutdown, queued frames never go
// out and incoming traffic is ignored.
func TestDeadRadioSilencesStation(t *testing.T) {
	net := newChain(t, 2, 14, phy.Config{})
	net.macs[1].Send(0, "queued", 52, nil)
	net.radios[1].Shutdown()
	net.ch.Disable(1)
	net.macs[0].Send(1, "tothedead", 52, nil)
	net.eng.Run(time.Second)
	if len(net.uppers[0].got) != 0 {
		t.Fatal("dead station transmitted")
	}
	if len(net.uppers[1].got) != 0 {
		t.Fatal("dead station received")
	}
}
