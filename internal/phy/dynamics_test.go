package phy

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/radio"
)

func TestLinkLossDropsOnlyConfiguredLink(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 3, Config{})
	// Certain loss is not allowed; use a probability high enough that 50
	// frames dropping through would be (1-0.999)^50 — impossible in a
	// deterministic run that draws uniforms from seed 1.
	ch.SetLinkLoss(0, 1, 0.999)
	for i := 0; i < 50; i++ {
		ch.StartTx(0, 1, 52, "x")
		eng.Run(eng.Now() + 10*time.Millisecond)
	}
	if got := len(rxs[1].delivered); got == 50 {
		t.Fatalf("lossy link delivered all %d frames", got)
	}
	if ch.Stats().LinkDrops == 0 {
		t.Fatal("no LinkDrops counted")
	}
	// The reverse direction is untouched.
	drops := ch.Stats().LinkDrops
	for i := 0; i < 20; i++ {
		ch.StartTx(1, 0, 52, "y")
		eng.Run(eng.Now() + 10*time.Millisecond)
	}
	if got := len(rxs[0].delivered); got != 20 {
		t.Fatalf("clean reverse link delivered %d of 20", got)
	}
	if ch.Stats().LinkDrops != drops {
		t.Fatal("reverse link counted drops")
	}
}

func TestLinkLossClearedRestoresDelivery(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 2, Config{})
	ch.SetLinkLoss(0, 1, 0.999)
	ch.SetLinkLoss(0, 1, 0)
	for i := 0; i < 20; i++ {
		ch.StartTx(0, 1, 52, "x")
		eng.Run(eng.Now() + 10*time.Millisecond)
	}
	if got := len(rxs[1].delivered); got != 20 {
		t.Fatalf("cleared link delivered %d of 20", got)
	}
}

func TestSuspendResumeRestoresReception(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 2, Config{})
	ch.Suspend(1)
	if radios[1].State() != radio.Off {
		t.Fatalf("suspended radio state %v, want off", radios[1].State())
	}
	// The hardware is down: a stale wake-up leaves it off.
	radios[1].TurnOn()
	if radios[1].State() != radio.Off {
		t.Fatalf("suspended radio state %v after TurnOn, want off", radios[1].State())
	}
	ch.StartTx(0, 1, 52, "lost")
	eng.Run(eng.Now() + 10*time.Millisecond)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("suspended node received a frame")
	}
	ch.Resume(1)
	radios[1].TurnOn()
	eng.Run(eng.Now() + 10*time.Millisecond)
	ch.StartTx(0, 1, 52, "back")
	eng.Run(eng.Now() + 10*time.Millisecond)
	if len(rxs[1].delivered) != 1 || rxs[1].delivered[0].Payload != "back" {
		t.Fatalf("resumed node delivered %v", rxs[1].delivered)
	}
}

func TestResumeRebuildsCarrierCount(t *testing.T) {
	eng, ch, radios, _ := testNet(t, 3, Config{})
	ch.Suspend(1)
	// Node 0 starts a long frame while node 1 is down; node 1 resumes
	// mid-frame and must sense the ongoing transmission.
	ch.StartTx(0, 2, 1000, "long")
	eng.Run(eng.Now() + 100*time.Microsecond) // frame still in the air (8ms+)
	ch.Resume(1)
	radios[1].TurnOn()
	eng.Run(eng.Now() + time.Microsecond)
	if !ch.CarrierBusy(1) {
		t.Fatal("resumed node does not sense the in-flight transmission")
	}
	// When the frame ends the carrier count must return to zero, not
	// underflow.
	eng.Run(eng.Now() + time.Second)
	if ch.CarrierBusy(1) {
		t.Fatal("carrier stuck busy after the frame ended")
	}
	ch.StartTx(2, 1, 52, "later")
	eng.Run(eng.Now() + 10*time.Millisecond)
	if ch.CarrierBusy(1) {
		t.Fatal("carrier count drifted negative across suspend/resume")
	}
}

// observerRecorder counts phy.Observer callbacks.
type observerRecorder struct {
	tx, delivered int
	lastState     radio.State
	lastEnabled   bool
}

func (o *observerRecorder) TxStarted(f *Frame, s radio.State, enabled bool) {
	o.tx++
	o.lastState, o.lastEnabled = s, enabled
}
func (o *observerRecorder) Delivered(f *Frame, dst NodeID) { o.delivered++ }

func TestChannelObserverSeesTxAndDeliveries(t *testing.T) {
	eng, ch, _, _ := testNet(t, 3, Config{})
	rec := &observerRecorder{}
	ch.SetObserver(rec)
	ch.StartTx(0, 1, 52, "x")
	eng.Run(eng.Now() + 10*time.Millisecond)
	if rec.tx != 1 || rec.delivered != 1 {
		t.Fatalf("observer saw tx=%d delivered=%d, want 1/1", rec.tx, rec.delivered)
	}
	if rec.lastState != radio.Idle || !rec.lastEnabled {
		t.Fatalf("observer state=%v enabled=%v at tx start", rec.lastState, rec.lastEnabled)
	}
}
