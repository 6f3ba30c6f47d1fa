package core

import (
	"slices"
	"testing"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// fakeRelayEnv scripts a RelayEnv with an instant link.
type fakeRelayEnv struct {
	*fakeEnv
	level    int
	children []query.NodeID
	sent     []sentCopy
	failNext bool
}

type sentCopy struct {
	dst query.NodeID
	k   int
	at  time.Duration
}

func (f *fakeRelayEnv) Level() int               { return f.level }
func (f *fakeRelayEnv) Children() []query.NodeID { return f.children }

func (f *fakeRelayEnv) SendData(dst query.NodeID, payload any, bytes int, cb mac.SendCallback) {
	f.sent = append(f.sent, sentCopy{dst, payload.(*FlowMessage).Interval, f.eng.Now()})
	ok := !f.failNext
	f.failNext = false
	if cb != nil {
		cb.SendDone(ok)
	}
}

// Roles of the node under test (self = 1) on a flow's route.
const (
	source = iota // releases the messages
	middle        // relays to next hop 5
	end           // last hop: relays nothing
)

// relayShape places node 1 in a role on one of the two route shapes.
type relayShape struct {
	name string
	// tree marks dissemination, where every node consumes.
	tree bool
	// place configures env for role and registers spec, returning the
	// node's hop index h.
	place func(env *fakeRelayEnv, r *Relay, role int) (int, error)
}

var rspec = P2PSpec{
	ID:           -100, // disjoint from query IDs
	Period:       time.Second,
	Phase:        500 * time.Millisecond,
	HopAllowance: 50 * time.Millisecond,
}

func dissemSpec(s P2PSpec) DisseminationSpec {
	return DisseminationSpec{ID: s.ID, Period: s.Period, Phase: s.Phase, HopAllowance: s.HopAllowance}
}

var relayShapes = []relayShape{
	{name: "tree", tree: true, place: func(env *fakeRelayEnv, r *Relay, role int) (int, error) {
		// Root at level 0 (h = 1), a relay at level 2, a leaf at level 3.
		env.root = role == source
		env.level = map[int]int{source: 0, middle: 2, end: 3}[role]
		if role != end {
			env.children = []query.NodeID{5}
		}
		return env.level + 1, r.Disseminate(dissemSpec(rspec))
	}},
	{name: "path", place: func(env *fakeRelayEnv, r *Relay, role int) (int, error) {
		path := map[int][]query.NodeID{
			source: {1, 5, 6},
			middle: {7, 8, 1, 5},
			end:    {7, 8, 1},
		}[role]
		spec := rspec
		spec.Src, spec.Dst = path[0], path[len(path)-1]
		return slices.Index(path, 1), r.Peer(spec, path)
	}},
}

type relayFixture struct {
	eng       *sim.Engine
	env       *fakeRelayEnv
	ss        *SafeSleep
	r         *Relay
	h         int
	delivered []int
}

func newRelayFixture(t *testing.T, sh relayShape, role int) *relayFixture {
	t.Helper()
	eng := sim.New(1)
	f := &relayFixture{eng: eng}
	f.ss = NewSafeSleep(eng, radio.New(eng, radio.Config{}), SafeSleepOptions{Disabled: true})
	f.env = &fakeRelayEnv{fakeEnv: &fakeEnv{eng: eng, self: 1, maxRank: 4, ranks: map[query.NodeID]int{}}}
	f.r = NewRelay(eng, f.env, f.ss, func(m *FlowMessage) { f.delivered = append(f.delivered, m.Interval) })
	h, err := sh.place(f.env, f.r, role)
	if err != nil {
		t.Fatal(err)
	}
	f.h = h
	return f
}

// slot is s(k, h) for rspec.
func slot(k, h int) time.Duration {
	return rspec.Phase + time.Duration(k)*rspec.Period + time.Duration(h)*rspec.HopAllowance
}

func (f *relayFixture) handleAt(at time.Duration, k int) {
	f.eng.Schedule(at, func() { f.r.Handle(&FlowMessage{Flow: rspec.ID, Interval: k}) })
}

func TestRelay(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, sh relayShape)
	}{
		{"source releases and forwards at its slot", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, source)
			f.eng.Run(slot(2, f.h) + time.Millisecond)
			want := []sentCopy{{5, 0, slot(0, f.h)}, {5, 1, slot(1, f.h)}, {5, 2, slot(2, f.h)}}
			if !slices.Equal(f.env.sent, want) {
				t.Fatalf("sent %v, want %v", f.env.sent, want)
			}
			st := f.r.Stats(rspec.ID)
			if st.Originated != 3 || st.Forwarded != 3 || st.Consumed != 0 {
				t.Fatalf("stats %+v", st)
			}
			// The root consumes its own commands; a peer source does not.
			if sh.tree != (len(f.delivered) == 3) {
				t.Fatalf("source delivered %v", f.delivered)
			}
		}},
		{"middle hop arms, receives and forwards", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, middle)
			if got := f.ss.recvTime(rspec.ID, flowKey); got != slot(0, f.h-1) {
				t.Fatalf("rnext = %v, want hop h-1's slot %v", got, slot(0, f.h-1))
			}
			f.handleAt(slot(0, f.h-1)+5*time.Millisecond, 0)
			f.eng.Run(slot(1, 0))
			if want := []sentCopy{{5, 0, slot(0, f.h)}}; !slices.Equal(f.env.sent, want) {
				t.Fatalf("sent %v, want %v", f.env.sent, want)
			}
			if got := f.ss.recvTime(rspec.ID, flowKey); got != slot(1, f.h-1) {
				t.Fatalf("rnext = %v after k=0, want %v", got, slot(1, f.h-1))
			}
			if st := f.r.Stats(rspec.ID); st.Late != 0 || (st.Consumed == 1) != sh.tree {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"duplicate via handoff dropped", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, middle)
			f.handleAt(slot(0, f.h-1), 0)
			f.handleAt(slot(0, f.h-1)+time.Millisecond, 0)
			f.eng.Run(slot(1, 0))
			if len(f.env.sent) != 1 {
				t.Fatalf("forwarded %d copies, want 1", len(f.env.sent))
			}
		}},
		{"late copy counted and relayed at once", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, middle)
			late := slot(0, f.h) + 300*time.Millisecond
			f.handleAt(late, 0)
			f.eng.Run(late + time.Millisecond)
			if want := []sentCopy{{5, 0, late}}; !slices.Equal(f.env.sent, want) {
				t.Fatalf("sent %v, want %v", f.env.sent, want)
			}
			if st := f.r.Stats(rspec.ID); st.Late != 1 {
				t.Fatalf("Late = %d, want 1", st.Late)
			}
		}},
		{"last hop consumes and relays nothing", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, end)
			f.handleAt(slot(0, f.h-1), 0)
			f.handleAt(slot(1, f.h-1), 1)
			f.eng.Run(slot(2, 0))
			if len(f.env.sent) != 0 {
				t.Fatalf("last hop forwarded %v", f.env.sent)
			}
			if !slices.Equal(f.delivered, []int{0, 1}) {
				t.Fatalf("delivered %v, want [0 1]", f.delivered)
			}
			st := f.r.Stats(rspec.ID)
			if st.Consumed != 2 || st.LatencySum != 2*time.Duration(f.h-1)*rspec.HopAllowance {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"forward failure counted", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, source)
			f.eng.Schedule(slot(0, 0), func() { f.env.failNext = true })
			f.eng.Run(slot(0, f.h) + time.Millisecond)
			if st := f.r.Stats(rspec.ID); st.ForwardFailures != 1 || st.Forwarded != 0 {
				t.Fatalf("stats %+v", st)
			}
		}},
		{"duplicate flow ID and bad timing refused", func(t *testing.T, sh relayShape) {
			f := newRelayFixture(t, sh, middle)
			if _, err := sh.place(f.env, f.r, middle); err == nil {
				t.Error("duplicate flow accepted")
			}
			if err := f.r.Disseminate(DisseminationSpec{ID: -1}); err == nil {
				t.Error("zero period accepted")
			}
			if err := f.r.Peer(P2PSpec{ID: -2, Src: 1, Dst: 5, Period: time.Second, Phase: -1}, []query.NodeID{1, 5}); err == nil {
				t.Error("negative phase accepted")
			}
		}},
	}
	for _, sh := range relayShapes {
		for _, c := range cases {
			sh, c := sh, c
			t.Run(sh.name+"/"+c.name, func(t *testing.T) { c.run(t, sh) })
		}
	}
}

// TestRelayPathOnly covers what only a fixed route has: endpoint
// validation and nodes off the path.
func TestRelayPathOnly(t *testing.T) {
	f := newRelayFixture(t, relayShapes[1], middle)
	bad := rspec
	bad.ID, bad.Src, bad.Dst = -7, 2, 2
	if err := f.r.Peer(bad, nil); err == nil {
		t.Error("src==dst accepted")
	}
	bad.Dst = 0
	if err := f.r.Peer(bad, []query.NodeID{2}); err == nil {
		t.Error("truncated path accepted")
	}

	// Node 1 is off the 2→3→0 path: no expectation, no relay, no
	// consumption.
	if err := f.r.Peer(bad, []query.NodeID{2, 3, 0}); err != nil {
		t.Fatal(err)
	}
	if f.ss.hasRecv(bad.ID, flowKey) {
		t.Error("off-path node armed a reception")
	}
	f.eng.Schedule(time.Second, func() { f.r.Handle(&FlowMessage{Flow: bad.ID}) })
	f.eng.Run(2 * time.Second)
	if st := f.r.Stats(bad.ID); st != (FlowStats{}) || len(f.env.sent) != 0 || len(f.delivered) != 0 {
		t.Fatalf("off-path node participated: %+v sent=%v delivered=%v", st, f.env.sent, f.delivered)
	}
}

// TestRelayTreeLevelIsLive: a dissemination node reads its level when
// it arms and forwards, so re-parenting one level closer to the root
// moves both its receive slot and its forwarding slot.
func TestRelayTreeLevelIsLive(t *testing.T) {
	f := newRelayFixture(t, relayShapes[0], middle) // level 2, h = 3
	f.eng.Schedule(slot(0, 2), func() {
		f.env.level = 1
		f.r.Handle(&FlowMessage{Flow: rspec.ID, Interval: 0})
	})
	f.eng.Run(slot(1, 0))
	if got := f.ss.recvTime(rspec.ID, flowKey); got != slot(1, 1) {
		t.Fatalf("rnext = %v after moving to level 1, want %v", got, slot(1, 1))
	}
	// The copy arrived at level 2's reception slot, which is level 1's
	// forwarding slot: it goes out at once.
	if want := []sentCopy{{5, 0, slot(0, 2)}}; !slices.Equal(f.env.sent, want) {
		t.Fatalf("sent %v, want %v", f.env.sent, want)
	}
}
