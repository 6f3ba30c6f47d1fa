package phy

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// TestChannelConservationProperty drives random traffic over random
// topologies and checks the channel's accounting invariants:
//
//   - every transmission is accounted: per receiver, a frame is either
//     delivered/overheard, corrupted, dropped by loss injection, or
//     missed (radio unable);
//   - carrier counts return to zero at quiescence;
//   - no frame is ever delivered to a station out of range.
func TestChannelConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		topo, err := topology.NewRandom(eng.Rand(), topology.Config{
			NumNodes: 12, AreaSide: 300, Range: 125,
		})
		if err != nil {
			return false
		}
		ch, _ := NewChannel(eng, topo, DefaultConfig())
		rxs := make([]*mockRx, topo.NumNodes())
		radios := make([]*radio.Radio, topo.NumNodes())
		for i := range rxs {
			rxs[i] = &mockRx{}
			radios[i] = radio.New(eng, radio.Config{})
			ch.Attach(NodeID(i), radios[i], rxs[i])
		}
		// Random transmissions at random times; some radios toggled off.
		for i := 0; i < 60; i++ {
			src := NodeID(rng.Intn(topo.NumNodes()))
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			var dst NodeID = Broadcast
			if rng.Intn(2) == 0 {
				dst = NodeID(rng.Intn(topo.NumNodes()))
				if dst == src {
					dst = Broadcast
				}
			}
			src, dst, i := src, dst, i
			eng.Schedule(at, func() {
				if st := radios[src].State(); (st == radio.Idle || st == radio.Rx) && ch.Enabled(src) {
					ch.StartTx(src, dst, 20+rng.Intn(60), i)
				}
			})
		}
		for i := 0; i < 6; i++ {
			n := NodeID(rng.Intn(topo.NumNodes()))
			at := time.Duration(rng.Intn(50)) * time.Millisecond
			eng.Schedule(at, func() { radios[n].TurnOff() })
			eng.Schedule(at+10*time.Millisecond, func() { radios[n].TurnOn() })
		}
		eng.Run(time.Second)

		// Quiescent: no station senses carrier.
		for i := range rxs {
			if radios[i].IsOn() && ch.CarrierBusy(NodeID(i)) {
				return false
			}
		}
		// Delivered frames respect topology.
		for i, rx := range rxs {
			for _, fr := range rx.delivered {
				if !topo.Connected(NodeID(i), fr.Src) {
					return false
				}
			}
		}
		// Counter sanity: deliveries+overheard+drops cannot exceed
		// transmissions × max neighbors.
		st := ch.Stats()
		maxNb := 0
		for i := 0; i < topo.NumNodes(); i++ {
			if d := topo.Degree(NodeID(i)); d > maxNb {
				maxNb = d
			}
		}
		total := st.Deliveries + st.Overheard + st.RandomDrops
		return total <= st.Transmissions*uint64(maxNb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRadioTimeConservationProperty checks that the per-state time
// accounting always sums to the elapsed simulation time.
func TestRadioTimeConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(seed)
		r := radio.New(eng, radio.Config{
			TurnOnDelay:  time.Duration(rng.Intn(3000)) * time.Microsecond,
			TurnOffDelay: time.Duration(rng.Intn(1000)) * time.Microsecond,
		})
		// Random plausible transitions.
		for i := 0; i < 40; i++ {
			at := time.Duration(rng.Intn(100)) * time.Millisecond
			op := rng.Intn(4)
			eng.Schedule(at, func() {
				switch op {
				case 0:
					r.TurnOff()
				case 1:
					r.TurnOn()
				case 2:
					if r.CanReceive() {
						r.BeginRx()
					}
				case 3:
					r.EndRx()
				}
			})
		}
		eng.Run(200 * time.Millisecond)
		var sum time.Duration
		for _, s := range []radio.State{radio.Off, radio.TurningOn, radio.Idle,
			radio.Rx, radio.Tx, radio.TurningOff} {
			sum += r.TimeIn(s)
		}
		return sum == eng.Now()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
