package baseline

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// --- Greedy -----------------------------------------------------------------

func TestGreedySendsImmediately(t *testing.T) {
	g := NewGreedy(nil, nil, 1, 0)
	spec := query.Spec{ID: 1, Period: time.Second, Phase: 0}
	g.QueryAdded(spec, nil)
	at, phase := g.ReportReady(1, 3, 1234*time.Millisecond)
	if at != 1234*time.Millisecond || phase != query.NoPhase {
		t.Fatalf("ReportReady = (%v, %v), want immediate with no phase", at, phase)
	}
}

func TestGreedyDeadlineFraction(t *testing.T) {
	g := NewGreedy(nil, nil, 1, 0)
	spec := query.Spec{ID: 1, Period: time.Second, Phase: 2 * time.Second}
	g.QueryAdded(spec, nil)
	if got := g.CollectDeadline(1, 0); got != 2750*time.Millisecond {
		t.Fatalf("CollectDeadline = %v, want 2.75s (0.75P)", got)
	}
}

func TestGreedyPerHopStretch(t *testing.T) {
	rank := fixedRank(3)
	g := NewGreedy(nil, &rank, 1, 200*time.Millisecond)
	spec := query.Spec{ID: 1, Period: 200 * time.Millisecond, Phase: 0}
	g.QueryAdded(spec, nil)
	// max(0.75·200ms, 200ms·4) = 800ms.
	if got := g.CollectDeadline(1, 0); got != 800*time.Millisecond {
		t.Fatalf("CollectDeadline = %v, want 800ms", got)
	}
	rank = 0
	// max(150ms, 200ms) = 200ms.
	if got := g.CollectDeadline(1, 0); got != 200*time.Millisecond {
		t.Fatalf("CollectDeadline = %v at rank 0, want 200ms", got)
	}
}

func TestGreedyQueryRemovedKeepsOthers(t *testing.T) {
	g := NewGreedy(nil, nil, 2, 0)
	g.QueryAdded(query.Spec{ID: 1, Period: time.Second}, nil)
	g.QueryAdded(query.Spec{ID: 2, Period: 2 * time.Second}, nil)
	g.QueryRemoved(1)
	if got := g.CollectDeadline(2, 0); got != 1500*time.Millisecond {
		t.Fatalf("CollectDeadline(2) = %v after removing query 1, want 1.5s", got)
	}
	if got := g.CollectDeadline(1, 0); got != 0 {
		t.Fatalf("CollectDeadline(1) = %v for a removed query, want 0", got)
	}
}

// fixedRank is a Ranker whose rank the test sets directly.
type fixedRank int

func (r *fixedRank) Rank() int { return int(*r) }

// --- SYNC -------------------------------------------------------------------

func TestSyncDutyCycleIsFixed(t *testing.T) {
	eng := sim.New(1)
	r := radio.New(eng, radio.Config{})
	NewSyncPM(eng, r).Start()
	eng.Run(10 * time.Second)
	duty := r.DutyCycle()
	if duty < 0.19 || duty > 0.21 {
		t.Fatalf("SYNC duty cycle = %.3f, want ~0.20", duty)
	}
}

func TestSyncWindowsAreSynchronized(t *testing.T) {
	eng := sim.New(1)
	r1 := radio.New(eng, radio.Config{})
	r2 := radio.New(eng, radio.Config{})
	NewSyncPM(eng, r1).Start()
	NewSyncPM(eng, r2).Start()
	mismatches := 0
	for probe := 10 * time.Millisecond; probe < 2*time.Second; probe += 17 * time.Millisecond {
		eng.Schedule(probe, func() {
			if r1.IsOn() != r2.IsOn() {
				mismatches++
			}
		})
	}
	eng.Run(2 * time.Second)
	if mismatches != 0 {
		t.Fatalf("%d probe points with unsynchronized radios", mismatches)
	}
}

// --- PSM --------------------------------------------------------------------

// sendFunc adapts a func to mac.SendCallback.
type sendFunc func(ok bool)

func (f sendFunc) SendDone(ok bool) { f(ok) }

type psmNet struct {
	eng    *sim.Engine
	radios []*radio.Radio
	macs   []*mac.MAC
	pms    []*PsmPM
	got    [][]any
}

// deliverTap dispatches data payloads into got and ATIMs into the PM.
type deliverTap struct {
	net *psmNet
	id  int
}

func (d *deliverTap) Deliver(src phy.NodeID, payload any, bytes int) {
	if atim, ok := payload.(AtimMsg); ok {
		d.net.pms[d.id].HandleControl(src, atim)
		return
	}
	d.net.got[d.id] = append(d.net.got[d.id], payload)
}

func newPsmNet(t *testing.T, n int) *psmNet {
	t.Helper()
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(n, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.Config{})
	net := &psmNet{eng: eng, got: make([][]any, n)}
	for i := 0; i < n; i++ {
		r := radio.New(eng, radio.Config{})
		tap := &deliverTap{net: net, id: i}
		m := mac.New(eng, ch, phy.NodeID(i), r, tap)
		pm := NewPsmPM(eng, phy.NodeID(i), r, m)
		net.radios = append(net.radios, r)
		net.macs = append(net.macs, m)
		net.pms = append(net.pms, pm)
	}
	for _, pm := range net.pms {
		pm.Start()
	}
	return net
}

func TestPsmIdleDutyIsAtimFraction(t *testing.T) {
	net := newPsmNet(t, 2)
	net.eng.Run(10 * time.Second)
	// No traffic: awake only for the 25ms ATIM window of each 200ms beacon.
	for i, r := range net.radios {
		duty := r.DutyCycle()
		if duty < 0.10 || duty > 0.16 {
			t.Errorf("idle PSM node %d duty = %.3f, want ~0.125", i, duty)
		}
	}
}

func TestPsmDeliversBufferedTraffic(t *testing.T) {
	net := newPsmNet(t, 2)
	delivered := false
	// Submit mid-beacon: the frame must wait for the next beacon's ATIM
	// announcement, then transfer in the data window.
	net.eng.Schedule(230*time.Millisecond, func() {
		net.pms[0].SubmitReport(1, "report", 52, sendFunc(func(ok bool) { delivered = ok }))
	})
	net.eng.Run(time.Second)
	if !delivered {
		t.Fatal("buffered frame never delivered")
	}
	if len(net.got[1]) != 1 || net.got[1][0] != "report" {
		t.Fatalf("receiver got %v", net.got[1])
	}
	if net.pms[0].Announcements == 0 {
		t.Fatal("no ATIM announcement sent")
	}
}

func TestPsmDeliveryLatencyIsAboutOneBeacon(t *testing.T) {
	net := newPsmNet(t, 2)
	var deliveredAt time.Duration
	submitted := 230 * time.Millisecond
	net.eng.Schedule(submitted, func() {
		net.pms[0].SubmitReport(1, "x", 52, sendFunc(func(ok bool) {
			if ok {
				deliveredAt = net.eng.Now()
			}
		}))
	})
	net.eng.Run(2 * time.Second)
	if deliveredAt == 0 {
		t.Fatal("not delivered")
	}
	wait := deliveredAt - submitted
	// Submitted at 230ms; next beacon at 400ms; transfer shortly after the
	// ATIM window (425ms+). Expect 170ms <= wait <= 400ms.
	if wait < 170*time.Millisecond || wait > 400*time.Millisecond {
		t.Fatalf("delivery wait = %v, want roughly one beacon period", wait)
	}
}

func TestPsmReceiverHoldsAfterAnnouncement(t *testing.T) {
	net := newPsmNet(t, 2)
	net.eng.Schedule(230*time.Millisecond, func() {
		net.pms[0].SubmitReport(1, "x", 52, nil)
	})
	// Probe mid-data-window of the transfer beacon (400ms + 60ms): the
	// announced receiver must still be awake.
	awake := false
	net.eng.Schedule(460*time.Millisecond, func() { awake = net.radios[1].IsOn() })
	net.eng.Run(time.Second)
	if !awake {
		t.Fatal("announced receiver slept during the advertisement window")
	}
}

func TestPsmUnannouncedNodeSleepsAfterAtim(t *testing.T) {
	net := newPsmNet(t, 3)
	net.eng.Schedule(230*time.Millisecond, func() {
		net.pms[0].SubmitReport(1, "x", 52, nil)
	})
	// Node 2 (chain end, hears only node 1) has no traffic: it must sleep
	// right after the ATIM window even while 0↔1 transfer.
	asleep := false
	net.eng.Schedule(460*time.Millisecond, func() { asleep = !net.radios[2].IsOn() })
	net.eng.Run(time.Second)
	if !asleep {
		t.Fatal("idle node stayed awake during others' data window")
	}
}

func TestPsmMultiHopForwarding(t *testing.T) {
	net := newPsmNet(t, 3)
	// 0 → 1 at one beacon; the test relays 1 → 2 by resubmitting, which
	// must wait for the following beacon.
	var hop2At time.Duration
	net.eng.Schedule(230*time.Millisecond, func() {
		net.pms[0].SubmitReport(1, "hop1", 52, nil)
	})
	net.eng.Schedule(610*time.Millisecond, func() {
		net.pms[1].SubmitReport(2, "hop2", 52, sendFunc(func(ok bool) {
			if ok {
				hop2At = net.eng.Now()
			}
		}))
	})
	net.eng.Run(2 * time.Second)
	if len(net.got[1]) != 1 || len(net.got[2]) != 1 {
		t.Fatalf("deliveries: mid=%v end=%v", net.got[1], net.got[2])
	}
	if hop2At < 800*time.Millisecond {
		t.Fatalf("second hop at %v, want after the 800ms beacon", hop2At)
	}
}
