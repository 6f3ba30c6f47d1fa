package phy

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// mirrorCheck is a radio listener subscribed after the channel station:
// at every transition it checks that the station's state mirror already
// equals the radio's state.
type mirrorCheck struct {
	t     *testing.T
	ch    *Channel
	id    NodeID
	r     *radio.Radio
	count int
}

func (m *mirrorCheck) RadioStateChanged(old, new radio.State) {
	m.count++
	if got, want := m.ch.stations[m.id].state, m.r.State(); got != want {
		m.t.Errorf("node %d: %v→%v: station mirror %v, radio %v", m.id, old, new, got, want)
	}
}

// TestStationMirrorsRadioState drives every kind of radio transition —
// delayed TurnOn/TurnOff, Tx, Rx, Suspend/Resume and Disable — and
// checks the station's mirror after each one.
func TestStationMirrorsRadioState(t *testing.T) {
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(3, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChannel(eng, topo, Config{})
	rcfg := radio.Config{TurnOnDelay: 2 * time.Millisecond, TurnOffDelay: time.Millisecond}
	radios := make([]*radio.Radio, 3)
	checks := make([]*mirrorCheck, 3)
	for i := range radios {
		radios[i] = radio.New(eng, rcfg)
		ch.Attach(NodeID(i), radios[i], &mockRx{})
		checks[i] = &mirrorCheck{t: t, ch: ch, id: NodeID(i), r: radios[i]}
		radios[i].Subscribe(checks[i])
	}
	settled := func(step string) {
		t.Helper()
		for i, r := range radios {
			if got := ch.stations[i].state; got != r.State() {
				t.Fatalf("%s: node %d mirror %v, radio %v", step, i, got, r.State())
			}
		}
	}
	at := time.Duration(0)
	step := func(name string, d time.Duration, f func()) {
		t.Helper()
		f()
		settled(name)
		at += d
		eng.Run(at)
		settled(name + " (settled)")
	}

	step("turn off", 5*time.Millisecond, func() { radios[1].TurnOff() })
	step("turn on", 5*time.Millisecond, func() { radios[1].TurnOn() })
	step("tx/rx", 10*time.Millisecond, func() { ch.StartTx(0, 1, 52, "x") })
	step("off mid-rx", 10*time.Millisecond, func() {
		ch.StartTx(0, 1, 500, "y")
		eng.Schedule(eng.Now()+time.Millisecond, func() { radios[1].TurnOff() })
	})
	step("on while turning off", 10*time.Millisecond, func() {
		radios[1].TurnOn()
		radios[1].TurnOff()
		radios[1].TurnOn()
	})
	step("off during tx", 10*time.Millisecond, func() {
		ch.StartTx(1, 2, 52, "z")
		radios[1].TurnOff()
	})
	step("suspend", 5*time.Millisecond, func() { ch.Suspend(2) })
	step("resume", 5*time.Millisecond, func() {
		ch.Resume(2)
		radios[2].TurnOn()
	})
	step("disable", 5*time.Millisecond, func() { ch.Disable(0) })
	if checks[0].count == 0 || checks[1].count == 0 || checks[2].count == 0 {
		t.Fatalf("transitions observed %d/%d/%d, want some at every node",
			checks[0].count, checks[1].count, checks[2].count)
	}
}

// TestSleepingStationGetsNoCarrierEdges checks that carrier edges reach
// only a powered radio, and that a radio waking mid-frame still senses
// the frame through CarrierBusy and then sees its falling edge.
func TestSleepingStationGetsNoCarrierEdges(t *testing.T) {
	eng, ch, radios, rxs := testNet(t, 3, Config{})
	radios[1].TurnOff()
	radios[2].TurnOff()
	dur, _ := ch.StartTx(0, 1, 200, "x")
	if len(rxs[1].carrier) != 0 {
		t.Fatalf("sleeping node got carrier edges %v", rxs[1].carrier)
	}
	eng.Schedule(dur/2, func() {
		radios[1].TurnOn()
		if !ch.CarrierBusy(1) {
			t.Error("node woken mid-frame does not sense the frame")
		}
	})
	eng.Run(dur + time.Millisecond)
	if ch.CarrierBusy(1) {
		t.Fatal("carrier still busy after the frame ended")
	}
	if len(rxs[1].carrier) != 1 || rxs[1].carrier[0] {
		t.Fatalf("woken node's carrier edges = %v, want [false]", rxs[1].carrier)
	}
	// Node 2 hears node 1's frame only; it slept throughout.
	dur, _ = ch.StartTx(1, 2, 52, "y")
	eng.Run(eng.Now() + dur + time.Millisecond)
	if len(rxs[2].carrier) != 0 {
		t.Fatalf("node asleep throughout got carrier edges %v", rxs[2].carrier)
	}
	if got := ch.Stats().MissedAsleep; got != 2 {
		t.Fatalf("MissedAsleep = %d, want 2", got)
	}
}

// TestActiveSlotsUnderShuffledEnds overlaps many transmissions whose
// lengths make them end in an order unrelated to their start order.
// After every end, each in-flight entry must hold its own index, and
// Resume must rebuild the carrier count that a brute-force count of the
// in-flight sources in range gives.
func TestActiveSlotsUnderShuffledEnds(t *testing.T) {
	const senders = 24
	rng := rand.New(rand.NewSource(7))
	eng := sim.New(1)
	// Two rows of senders 100 m apart with 10 m spacing; the observer,
	// node `senders`, sits beside them and hears only half of them.
	pos := make([]geom.Point, senders+1)
	for i := 0; i < senders; i++ {
		pos[i] = geom.Point{X: float64(i%12) * 10, Y: float64(i/12) * 100}
	}
	pos[senders] = geom.Point{X: 170, Y: 50}
	topo, err := topology.FromPositions(pos, 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := NewChannel(eng, topo, Config{})
	for i := range pos {
		ch.Attach(NodeID(i), radio.New(eng, radio.Config{}), &mockRx{})
	}
	obs := NodeID(senders)

	ends := make([]time.Duration, senders)
	for i := 0; i < senders; i++ {
		// Every sender starts inside the first frame's airtime, so all
		// of them overlap (a sender locked onto another frame may still
		// transmit: BeginTx aborts the reception).
		at := time.Duration(i) * time.Microsecond
		eng.Run(at)
		dur, _ := ch.StartTx(NodeID(i), Broadcast, 20+rng.Intn(400), i)
		ends[i] = at + dur
	}
	order := make([]int, senders)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ends[order[a]] < ends[order[b]] })
	shuffled := false
	for i, s := range order {
		shuffled = shuffled || s != i
	}
	if !shuffled {
		t.Fatal("transmissions end in start order; the test needs a shuffle")
	}

	for done, s := range order {
		now := ends[s]
		eng.Run(now)
		want, carriers := 0, 0
		for r, end := range ends {
			if end > now {
				want++
				if topo.Connected(NodeID(r), obs) {
					carriers++
				}
			}
		}
		if got := len(ch.active); got != want {
			t.Fatalf("after %d ends: %d in flight, want %d", done+1, got, want)
		}
		for i, tx := range ch.active {
			if tx.slot != i {
				t.Fatalf("after %d ends: active[%d] holds slot %d", done+1, i, tx.slot)
			}
		}
		ch.Suspend(obs)
		ch.Resume(obs)
		if got := ch.stations[obs].carriers; got != carriers {
			t.Fatalf("after %d ends: Resume rebuilt %d carriers, brute force %d", done+1, got, carriers)
		}
	}
}
