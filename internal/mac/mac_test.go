package mac

import (
	"testing"
	"time"
	"unsafe"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// sendFunc adapts a func to SendCallback.
type sendFunc func(ok bool)

func (f sendFunc) SendDone(ok bool) { f(ok) }

type recvRec struct {
	src     phy.NodeID
	payload any
}

type mockUpper struct {
	got []recvRec
}

func (u *mockUpper) Deliver(src phy.NodeID, payload any, bytes int) {
	u.got = append(u.got, recvRec{src: src, payload: payload})
}

type testNet struct {
	eng    *sim.Engine
	ch     *phy.Channel
	radios []*radio.Radio
	macs   []*MAC
	uppers []*mockUpper
}

// newChain builds n nodes in a 100m-spaced chain (adjacent-only links).
func newChain(t *testing.T, n int, seed int64, chCfg phy.Config) *testNet {
	t.Helper()
	return newChainWith(t, n, seed, chCfg, nil)
}

// newChainWith is newChain with node i's upper layer taken from
// uppers[i] when present; the others get a recording mockUpper.
func newChainWith(t *testing.T, n int, seed int64, chCfg phy.Config, uppers map[int]Upper) *testNet {
	t.Helper()
	eng := sim.New(seed)
	topo, err := topology.FromPositions(geom.LinePlacement(n, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, chCfg)
	net := &testNet{eng: eng, ch: ch}
	for i := 0; i < n; i++ {
		r := radio.New(eng, radio.Config{})
		u := &mockUpper{}
		var up Upper = u
		if custom, ok := uppers[i]; ok {
			up = custom
		}
		m := New(eng, ch, phy.NodeID(i), r, up)
		net.radios = append(net.radios, r)
		net.macs = append(net.macs, m)
		net.uppers = append(net.uppers, u)
	}
	return net
}

func TestUnicastWithAck(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	var ok *bool
	net.macs[0].Send(1, "ping", 52, sendFunc(func(b bool) { ok = &b }))
	net.eng.Run(time.Second)

	if ok == nil || !*ok {
		t.Fatal("send callback not invoked with success")
	}
	if len(net.uppers[1].got) != 1 || net.uppers[1].got[0].payload != "ping" {
		t.Fatalf("upper got %v, want one ping", net.uppers[1].got)
	}
	st := net.macs[0].Stats()
	if st.Sent != 1 || st.Failed != 0 {
		t.Fatalf("sender stats = %+v", st)
	}
	if net.macs[1].Stats().AcksSent != 1 {
		t.Fatalf("receiver sent %d acks, want 1", net.macs[1].Stats().AcksSent)
	}
	if net.macs[0].Busy() {
		t.Fatal("sender still busy after completion")
	}
}

func TestBroadcastNoAck(t *testing.T) {
	net := newChain(t, 3, 1, phy.Config{})
	done := false
	net.macs[1].Send(phy.Broadcast, "hello", 52, sendFunc(func(b bool) { done = b }))
	net.eng.Run(time.Second)
	if !done {
		t.Fatal("broadcast callback not invoked")
	}
	if len(net.uppers[0].got) != 1 || len(net.uppers[2].got) != 1 {
		t.Fatal("broadcast not delivered to both neighbors")
	}
	if net.macs[0].Stats().AcksSent != 0 || net.macs[2].Stats().AcksSent != 0 {
		t.Fatal("broadcast must not be acknowledged")
	}
}

func TestSleepingReceiverExhaustsRetries(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	net.radios[1].TurnOff()
	var result *bool
	net.macs[0].Send(1, "x", 52, sendFunc(func(b bool) { result = &b }))
	net.eng.Run(time.Second)
	if result == nil {
		t.Fatal("callback never invoked")
	}
	if *result {
		t.Fatal("send to sleeping node reported success")
	}
	st := net.macs[0].Stats()
	if st.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", st.Failed)
	}
	if st.Retries != uint64(retryLimit) {
		t.Fatalf("Retries = %d, want %d", st.Retries, retryLimit)
	}
}

func TestReceiverWakesDuringRetries(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	net.radios[1].TurnOff()
	var result *bool
	net.macs[0].Send(1, "x", 52, sendFunc(func(b bool) { result = &b }))
	// Wake the receiver after the first couple of attempts fail.
	net.eng.Schedule(2*time.Millisecond, func() { net.radios[1].TurnOn() })
	net.eng.Run(time.Second)
	if result == nil || !*result {
		t.Fatal("retransmission after receiver wake did not succeed")
	}
	if len(net.uppers[1].got) != 1 {
		t.Fatalf("upper got %d deliveries, want 1", len(net.uppers[1].got))
	}
}

func TestSenderRadioOffPausesAndResumes(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	net.radios[0].TurnOff()
	got := false
	net.macs[0].Send(1, "x", 52, sendFunc(func(b bool) { got = b }))
	net.eng.Run(100 * time.Millisecond)
	if got {
		t.Fatal("frame sent while radio off")
	}
	net.radios[0].TurnOn()
	net.eng.Run(200 * time.Millisecond)
	if !got {
		t.Fatal("frame not sent after radio resumed")
	}
}

func TestQueueDrainsInOrder(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	for i := 0; i < 5; i++ {
		net.macs[0].Send(1, i, 52, nil)
	}
	net.eng.Run(time.Second)
	if len(net.uppers[1].got) != 5 {
		t.Fatalf("got %d deliveries, want 5", len(net.uppers[1].got))
	}
	for i, r := range net.uppers[1].got {
		if r.payload != i {
			t.Fatalf("delivery %d = %v, want %d (order violated)", i, r.payload, i)
		}
	}
}

func TestContendingSendersBothSucceed(t *testing.T) {
	// Nodes 0 and 2 both send to node 1 at the same instant; CSMA backoff
	// plus retries must get both frames through.
	net := newChain(t, 3, 7, phy.Config{})
	oks := 0
	net.macs[0].Send(1, "a", 52, sendFunc(func(b bool) {
		if b {
			oks++
		}
	}))
	net.macs[2].Send(1, "b", 52, sendFunc(func(b bool) {
		if b {
			oks++
		}
	}))
	net.eng.Run(time.Second)
	if oks != 2 {
		t.Fatalf("%d of 2 contending sends succeeded", oks)
	}
	if len(net.uppers[1].got) != 2 {
		t.Fatalf("receiver got %d frames, want 2", len(net.uppers[1].got))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// A 5-node star cannot exist on a chain; use a dense cluster instead.
	eng := sim.New(3)
	// A 2×3 grid at 50 m spacing: all within 125 m of each other.
	pts := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 50}, {X: 50, Y: 50}, {X: 100, Y: 50}}
	topo, err := topology.FromPositions(pts, 125)
	if err != nil {
		t.Fatal(err)
	}
	ch, _ := phy.NewChannel(eng, topo, phy.Config{})
	var macs []*MAC
	var uppers []*mockUpper
	for i := 0; i < 6; i++ {
		r := radio.New(eng, radio.Config{})
		u := &mockUpper{}
		macs = append(macs, New(eng, ch, phy.NodeID(i), r, u))
		uppers = append(uppers, u)
	}
	// Nodes 1..5 all send to node 0 simultaneously.
	succ := 0
	for i := 1; i < 6; i++ {
		macs[i].Send(0, i, 52, sendFunc(func(b bool) {
			if b {
				succ++
			}
		}))
	}
	eng.Run(time.Second)
	if succ != 5 {
		t.Fatalf("%d of 5 contending sends succeeded", succ)
	}
	if len(uppers[0].got) != 5 {
		t.Fatalf("hub received %d frames, want 5", len(uppers[0].got))
	}
}

func TestDuplicateFilteringUnderAckLoss(t *testing.T) {
	cfg := phy.Config{}
	cfg.LossRate = 0.3
	net := newChain(t, 2, 11, cfg)
	const n = 50
	succ := 0
	for i := 0; i < n; i++ {
		i := i
		net.eng.Schedule(time.Duration(i)*20*time.Millisecond, func() {
			net.macs[0].Send(1, i, 52, sendFunc(func(b bool) {
				if b {
					succ++
				}
			}))
		})
	}
	net.eng.Run(5 * time.Second)
	// With 30% loss and 7 retries essentially everything gets through.
	if succ < n*9/10 {
		t.Fatalf("only %d/%d sends succeeded under 30%% loss", succ, n)
	}
	seen := make(map[any]int)
	for _, r := range net.uppers[1].got {
		seen[r.payload]++
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("payload %v delivered %d times (dup filter broken)", k, c)
		}
	}
	if net.macs[1].Stats().Duplicates == 0 && net.macs[0].Stats().Retries > 0 {
		// Retries happened; under ACK loss at least some should have been
		// duplicates at the receiver. Not guaranteed for every seed, so
		// only log.
		t.Logf("note: retries=%d but no duplicates observed", net.macs[0].Stats().Retries)
	}
}

func TestHiddenTerminalsEventuallyDeliver(t *testing.T) {
	// 0 and 2 cannot hear each other but share receiver 1: collisions are
	// likely, retries must recover.
	net := newChain(t, 3, 5, phy.Config{})
	succ := 0
	for i := 0; i < 10; i++ {
		i := i
		at := time.Duration(i) * 5 * time.Millisecond
		net.eng.Schedule(at, func() {
			net.macs[0].Send(1, i, 52, sendFunc(func(b bool) {
				if b {
					succ++
				}
			}))
			net.macs[2].Send(1, 100+i, 52, sendFunc(func(b bool) {
				if b {
					succ++
				}
			}))
		})
	}
	net.eng.Run(2 * time.Second)
	if succ < 18 {
		t.Fatalf("only %d/20 hidden-terminal sends succeeded", succ)
	}
}

// idleCounter is an IdleSink that counts drained notifications.
type idleCounter int

func (c *idleCounter) MACIdle() { *c++ }

func TestIdleCallback(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	var idle idleCounter
	net.macs[0].SetIdleSink(&idle)
	net.macs[0].Send(1, "x", 52, nil)
	if idle != 0 {
		t.Fatal("idle sink notified while frame pending")
	}
	net.eng.Run(time.Second)
	if idle == 0 {
		t.Fatal("idle sink not notified after drain")
	}
}

func TestBusyWhileOwingAck(t *testing.T) {
	var net *testNet
	busyDuringDeliver := false
	checker := &deliverChecker{f: func() { busyDuringDeliver = net.macs[1].Busy() }}
	net = newChainWith(t, 2, 1, phy.Config{}, map[int]Upper{1: checker})
	net.macs[0].Send(1, "x", 52, nil)
	net.eng.Run(time.Second)
	if !busyDuringDeliver {
		t.Fatal("receiver not Busy() while owing the ACK during Deliver")
	}
	if net.macs[1].Busy() {
		t.Fatal("receiver still busy after ACK sent")
	}
}

type deliverChecker struct{ f func() }

func (d *deliverChecker) Deliver(phy.NodeID, any, int) { d.f() }

func TestServiceTimeAccumulates(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	net.macs[0].Send(1, "x", 52, nil)
	net.eng.Run(time.Second)
	st := net.macs[0].Stats()
	if st.ServiceTime <= 0 {
		t.Fatalf("ServiceTime = %v, want > 0", st.ServiceTime)
	}
	if st.ServiceTime > 10*time.Millisecond {
		t.Fatalf("ServiceTime = %v, implausibly large for one uncontended frame", st.ServiceTime)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	net := newChain(t, 2, 1, phy.Config{})
	defer func() {
		if recover() == nil {
			t.Error("send to self did not panic")
		}
	}()
	net.macs[0].Send(0, "x", 52, nil)
}

// TestMACSize: the DCF timing is package constants, so every station's
// MAC carries no copy of it (440 B on 64-bit platforms). The MAC is the
// largest per-neighbour struct of a run.
func TestMACSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(MAC{}); got > 440 {
		t.Fatalf("mac.MAC is %d B, want at most 440", got)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() (uint64, time.Duration) {
		net := newChain(t, 3, 99, phy.Config{})
		for i := 0; i < 20; i++ {
			i := i
			net.eng.Schedule(time.Duration(i)*time.Millisecond, func() {
				net.macs[0].Send(1, i, 52, nil)
				net.macs[2].Send(1, 100+i, 52, nil)
			})
		}
		net.eng.Run(time.Second)
		return net.eng.Processed(), net.macs[0].Stats().ServiceTime
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Fatalf("runs diverged: (%d,%v) vs (%d,%v)", e1, s1, e2, s2)
	}
}
