package baseline

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

type tmacNet struct {
	eng    *sim.Engine
	radios []*radio.Radio
	macs   []*mac.MAC
	pms    []*TmacPM
	got    [][]any
}

type tmacTap struct {
	net *tmacNet
	id  int
}

func (d *tmacTap) Deliver(src phy.NodeID, payload any, bytes int) {
	d.net.got[d.id] = append(d.net.got[d.id], payload)
}

func newTmacNet(t *testing.T, n int) *tmacNet {
	t.Helper()
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(n, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.Config{})
	net := &tmacNet{eng: eng, got: make([][]any, n)}
	for i := 0; i < n; i++ {
		r := radio.New(eng, radio.Config{})
		m := mac.New(eng, ch, phy.NodeID(i), r, &tmacTap{net: net, id: i})
		pm := NewTmacPM(eng, r, m)
		net.radios = append(net.radios, r)
		net.macs = append(net.macs, m)
		net.pms = append(net.pms, pm)
	}
	for _, pm := range net.pms {
		pm.Start()
	}
	return net
}

func TestTmacIdleDutyIsTAFraction(t *testing.T) {
	net := newTmacNet(t, 2)
	net.eng.Run(10 * time.Second)
	// No traffic: awake for TA (15ms) of every 200ms frame = 7.5%.
	for i, r := range net.radios {
		duty := r.DutyCycle()
		if duty < 0.06 || duty > 0.10 {
			t.Errorf("idle T-MAC node %d duty = %.3f, want ~0.075", i, duty)
		}
	}
}

func TestTmacDeliversBufferedFrame(t *testing.T) {
	net := newTmacNet(t, 2)
	delivered := false
	net.eng.Schedule(230*time.Millisecond, func() {
		net.pms[0].SubmitReport(1, "report", 52, sendFunc(func(ok bool) { delivered = ok }))
	})
	net.eng.Run(time.Second)
	if !delivered {
		t.Fatal("buffered frame never delivered")
	}
	if len(net.got[1]) != 1 {
		t.Fatalf("receiver got %v", net.got[1])
	}
}

func TestTmacActivityExtendsWindow(t *testing.T) {
	net := newTmacNet(t, 2)
	// A burst of 5 frames buffered mid-frame is released at the next
	// frame start (t=200ms) and keeps both nodes awake while the
	// transfers run; an idle node's awake window is only TA=15ms.
	for i := 0; i < 5; i++ {
		net.pms[0].SubmitReport(1, i, 52, nil)
	}
	// The transfers run back-to-back from 200ms (~1ms each); probe that
	// the receiver is awake mid-burst and asleep again well after the
	// last exchange + TA.
	awakeDuring := false
	asleepAfter := false
	net.eng.Schedule(203*time.Millisecond, func() { awakeDuring = net.radios[1].IsOn() })
	net.eng.Schedule(260*time.Millisecond, func() { asleepAfter = !net.radios[1].IsOn() })
	net.eng.Run(399 * time.Millisecond)
	if !awakeDuring {
		t.Error("receiver slept during an active exchange")
	}
	if !asleepAfter {
		t.Error("receiver still awake 45ms after the last activity")
	}
	if len(net.got[1]) != 5 {
		t.Fatalf("receiver got %d frames, want 5", len(net.got[1]))
	}
}

func TestTmacFramesAreSynchronized(t *testing.T) {
	net := newTmacNet(t, 3)
	// At every frame start all nodes are awake simultaneously.
	mismatches := 0
	for f := 0; f < 5; f++ {
		at := time.Duration(f)*200*time.Millisecond + 2*time.Millisecond
		net.eng.Schedule(at, func() {
			for _, r := range net.radios {
				if !r.IsOn() {
					mismatches++
				}
			}
		})
	}
	net.eng.Run(1100 * time.Millisecond)
	if mismatches != 0 {
		t.Fatalf("%d sleeping nodes at frame starts", mismatches)
	}
}
