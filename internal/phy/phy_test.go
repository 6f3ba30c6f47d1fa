package phy

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

type mockRx struct {
	delivered []Frame // copies: delivered *Frames are only valid in the callback
	carrier   []bool
}

func (m *mockRx) FrameDelivered(f *Frame)  { m.delivered = append(m.delivered, *f) }
func (m *mockRx) CarrierChanged(busy bool) { m.carrier = append(m.carrier, busy) }

// testNet builds a channel over a chain of n nodes spaced 100m apart with
// 125m range (so only adjacent nodes hear each other).
func testNet(t *testing.T, n int, cfg Config) (*sim.Engine, *Channel, []*radio.Radio, []*mockRx) {
	t.Helper()
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(n, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChannel(eng, topo, cfg)
	radios := make([]*radio.Radio, n)
	rxs := make([]*mockRx, n)
	for i := 0; i < n; i++ {
		radios[i] = radio.New(eng, radio.Config{})
		rxs[i] = &mockRx{}
		ch.Attach(NodeID(i), radios[i], rxs[i])
	}
	return eng, ch, radios, rxs
}

func TestFrameDuration(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	ch, _ := NewChannel(eng, topo, Config{})
	// Airtime is the payload at 1 Mbps plus the 96 µs preamble.
	for _, tc := range []struct {
		name  string
		bytes int
		want  time.Duration
	}{
		{"report", 52, 512 * time.Microsecond}, // 416 µs + 96 µs
		{"ack", 14, 208 * time.Microsecond},    // 112 µs + 96 µs
		{"one-byte", 1, 104 * time.Microsecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := ch.FrameDuration(tc.bytes); got != tc.want {
				t.Fatalf("FrameDuration(%d) = %v, want %v", tc.bytes, got, tc.want)
			}
		})
	}
}

func TestUnicastDelivery(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 3, Config{})
	ch.StartTx(0, 1, 52, "hello")
	eng.Run(time.Second)

	if len(rxs[1].delivered) != 1 {
		t.Fatalf("node 1 got %d frames, want 1", len(rxs[1].delivered))
	}
	if got := rxs[1].delivered[0].Payload; got != "hello" {
		t.Fatalf("payload = %v, want hello", got)
	}
	// Node 2 is out of range of node 0.
	if len(rxs[2].delivered) != 0 {
		t.Fatalf("node 2 got %d frames, want 0 (out of range)", len(rxs[2].delivered))
	}
	st := ch.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 {
		t.Fatalf("stats = %+v, want 1 tx 1 delivery", st)
	}
}

func TestOverheardUnicastReportedForNAV(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 3, Config{})
	// 1 -> 2; node 0 is in range of 1 but not the destination. The channel
	// still reports the decode so the MAC can set its NAV; the Overheard
	// counter distinguishes it from a real delivery.
	ch.StartTx(1, 2, 52, "x")
	eng.Run(time.Second)
	if len(rxs[0].delivered) != 1 {
		t.Fatal("node 0 should decode (overhear) the unicast for NAV purposes")
	}
	if len(rxs[2].delivered) != 1 {
		t.Fatal("node 2 missed its unicast")
	}
	st := ch.Stats()
	if st.Deliveries != 1 || st.Overheard != 1 {
		t.Fatalf("stats = %+v, want 1 delivery and 1 overheard", st)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 3, Config{})
	ch.StartTx(1, Broadcast, 52, "b")
	eng.Run(time.Second)
	if len(rxs[0].delivered) != 1 || len(rxs[2].delivered) != 1 {
		t.Fatalf("broadcast deliveries = %d,%d, want 1,1",
			len(rxs[0].delivered), len(rxs[2].delivered))
	}
}

func TestSleepingReceiverMissesFrame(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 2, Config{})
	radios[1].TurnOff()
	ch.StartTx(0, 1, 52, "x")
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("sleeping node received a frame")
	}
	if ch.Stats().MissedAsleep != 1 {
		t.Fatalf("MissedAsleep = %d, want 1", ch.Stats().MissedAsleep)
	}
}

func TestRadioOffMidFrameLosesFrame(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 2, Config{})
	ch.StartTx(0, 1, 52, "x")
	// Turn the receiver off halfway through the frame.
	eng.Schedule(300*time.Microsecond, func() { radios[1].TurnOff() })
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("frame delivered despite radio powering down mid-reception")
	}
}

func TestCollisionCorruptsBothFrames(t *testing.T) {
	// Nodes 0 and 2 both in range of 1; simultaneous tx collide at 1.
	eng, ch, _, rxs := testNet(t, 3, Config{})
	ch.StartTx(0, 1, 52, "a")
	ch.StartTx(2, 1, 52, "b")
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatalf("node 1 received %d frames despite collision", len(rxs[1].delivered))
	}
	if ch.Stats().Collisions == 0 {
		t.Fatal("no collisions recorded")
	}
}

func TestPartialOverlapCollides(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 3, Config{})
	ch.StartTx(0, 1, 52, "a")
	// Second frame starts before the first ends.
	eng.Schedule(100*time.Microsecond, func() { ch.StartTx(2, 1, 52, "b") })
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("partial overlap should corrupt the reception")
	}
}

func TestHiddenTerminalNoInterferenceOutOfRange(t *testing.T) {
	// Chain 0-1-2-3: tx 0->1 and 3->2 do not interfere (0 and 3 are 300m
	// apart, receivers 1 and 2 are each in range of only one transmitter).
	eng, ch, _, rxs := testNet(t, 4, Config{})
	ch.StartTx(0, 1, 52, "a")
	ch.StartTx(3, 2, 52, "b")
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 1 {
		t.Fatalf("node 1 deliveries = %d, want 1", len(rxs[1].delivered))
	}
	if len(rxs[2].delivered) != 1 {
		t.Fatalf("node 2 deliveries = %d, want 1", len(rxs[2].delivered))
	}
}

func TestExposedReceiverHearsBothAndCollides(t *testing.T) {
	// Chain 0-1-2: 0 and 2 are hidden from each other but node 1 hears
	// both. This is the classic hidden-terminal collision.
	eng, ch, _, rxs := testNet(t, 3, Config{})
	ch.StartTx(0, 1, 52, "a")
	eng.Schedule(50*time.Microsecond, func() { ch.StartTx(2, Broadcast, 14, "b") })
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("hidden-terminal overlap should collide at the common receiver")
	}
}

func TestCarrierEdges(t *testing.T) {
	eng, ch, _, rxs := testNet(t, 2, Config{})
	ch.StartTx(0, 1, 52, "x")
	if !ch.CarrierBusy(1) {
		t.Fatal("node 1 should sense carrier during tx")
	}
	eng.Run(time.Second)
	if ch.CarrierBusy(1) {
		t.Fatal("carrier still busy after tx end")
	}
	if len(rxs[1].carrier) != 2 || rxs[1].carrier[0] != true || rxs[1].carrier[1] != false {
		t.Fatalf("carrier edges = %v, want [true false]", rxs[1].carrier)
	}
}

func TestCarrierNotSensedWhileOff(t *testing.T) {
	_, ch, radios, _ := testNet(t, 2, Config{})
	radios[1].TurnOff()
	ch.StartTx(0, 1, 52, "x")
	if ch.CarrierBusy(1) {
		t.Fatal("powered-down radio senses carrier")
	}
}

func TestOwnTransmissionIsBusy(t *testing.T) {
	_, ch, _, _ := testNet(t, 2, Config{})
	ch.StartTx(0, 1, 52, "x")
	if !ch.CarrierBusy(0) {
		t.Fatal("transmitter should report busy during its own tx")
	}
}

func TestLossInjection(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	cfg := Config{}
	cfg.LossRate = 0.5
	ch, _ := NewChannel(eng, topo, cfg)
	radios := []*radio.Radio{radio.New(eng, radio.Config{}), radio.New(eng, radio.Config{})}
	rxs := []*mockRx{{}, {}}
	ch.Attach(0, radios[0], rxs[0])
	ch.Attach(1, radios[1], rxs[1])

	const n = 400
	for i := 0; i < n; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		eng.Schedule(at, func() { ch.StartTx(0, 1, 52, i) })
	}
	eng.Run(time.Duration(n+1) * 2 * time.Millisecond)
	got := len(rxs[1].delivered)
	if got < n*3/10 || got > n*7/10 {
		t.Fatalf("delivered %d of %d with 50%% loss, want roughly half", got, n)
	}
	if int(ch.Stats().RandomDrops)+got != n {
		t.Fatalf("drops (%d) + deliveries (%d) != %d", ch.Stats().RandomDrops, got, n)
	}
}

func TestDisableRemovesNode(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 2, Config{})
	ch.Disable(1)
	if ch.Enabled(1) {
		t.Fatal("node still enabled after Disable")
	}
	if radios[1].State() != radio.Off {
		t.Fatal("disabled node's radio should be off")
	}
	ch.StartTx(0, 1, 52, "x")
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("disabled node received a frame")
	}
}

func TestWakeMidFrameCannotReceive(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 2, Config{})
	radios[1].TurnOff()
	ch.StartTx(0, 1, 52, "x")
	// Wake instantly mid-frame: missed the preamble, cannot lock on,
	// but carrier should be audible.
	eng.Schedule(100*time.Microsecond, func() {
		radios[1].TurnOn()
		if !ch.CarrierBusy(1) {
			t.Error("woken radio should sense ongoing transmission")
		}
	})
	eng.Run(time.Second)
	if len(rxs[1].delivered) != 0 {
		t.Fatal("node received a frame whose start it missed")
	}
}

func TestAttachTwicePanics(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	ch, _ := NewChannel(eng, topo, Config{})
	r := radio.New(eng, radio.Config{})
	ch.Attach(0, r, &mockRx{})
	defer func() {
		if recover() == nil {
			t.Error("double attach did not panic")
		}
	}()
	ch.Attach(0, r, &mockRx{})
}
