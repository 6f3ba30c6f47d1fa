package dynamics

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// fakeHost records injector actions against a 10-node star (root 0).
type fakeHost struct {
	eng     *sim.Engine
	log     []string
	loss    map[[2]topology.NodeID]float64
	crashed map[topology.NodeID]bool
	queries map[query.ID]query.Spec
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		eng:     sim.New(1),
		loss:    map[[2]topology.NodeID]float64{},
		crashed: map[topology.NodeID]bool{},
		queries: map[query.ID]query.Spec{},
	}
}

func (h *fakeHost) Eng() *sim.Engine { return h.eng }

// drain fires the host engine's events until its queue is empty.
func (h *fakeHost) drain() {
	for h.eng.Step() {
	}
}

func (h *fakeHost) Members() []topology.NodeID {
	out := make([]topology.NodeID, 10)
	for i := range out {
		out[i] = topology.NodeID(i)
	}
	return out
}
func (h *fakeHost) Root() topology.NodeID { return 0 }
func (h *fakeHost) Neighbors(id topology.NodeID) []topology.NodeID {
	if id == 0 {
		return nil
	}
	return []topology.NodeID{0, (id % 9) + 1}
}
func (h *fakeHost) Crash(id topology.NodeID) {
	h.crashed[id] = true
	h.log = append(h.log, fmt.Sprintf("%v crash %d", h.eng.Now(), id))
}
func (h *fakeHost) Recover(id topology.NodeID) {
	delete(h.crashed, id)
	h.log = append(h.log, fmt.Sprintf("%v recover %d", h.eng.Now(), id))
}
func (h *fakeHost) SetLinkLoss(a, b topology.NodeID, p float64) {
	h.loss[[2]topology.NodeID{a, b}] = p
}
func (h *fakeHost) AddQuery(spec query.Spec) error {
	h.queries[spec.ID] = spec
	return nil
}
func (h *fakeHost) RemoveQuery(id query.ID) { delete(h.queries, id) }

func schedule(t *testing.T, h Host, kind string, p Params, seed int64) {
	t.Helper()
	if err := Schedule(h, kind, p, seed, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCrashInjectorCrashesAndRecovers(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindCrash, Params{At: time.Second, Duration: 2 * time.Second, Count: 3}, 1)
	h.drain()
	var crashes, recoveries int
	for _, l := range h.log {
		switch {
		case strings.Contains(l, "crash"):
			crashes++
		case strings.Contains(l, "recover"):
			recoveries++
		}
	}
	if crashes != 3 || recoveries != 3 {
		t.Fatalf("log %v: want 3 crashes and 3 recoveries", h.log)
	}
	if len(h.crashed) != 0 {
		t.Fatalf("nodes still down after recovery: %v", h.crashed)
	}
}

func TestCrashInjectorPermanentWithoutDuration(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindCrash, Params{At: time.Second, Count: 2}, 1)
	h.drain()
	if len(h.crashed) != 2 {
		t.Fatalf("want 2 permanently crashed nodes, got %v", h.crashed)
	}
}

func TestCrashInjectorNeverTargetsRoot(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h := newFakeHost()
		schedule(t, h, KindCrash, Params{At: time.Second, Count: 9}, seed)
		h.drain()
		if h.crashed[0] {
			t.Fatalf("seed %d crashed the root", seed)
		}
	}
	// A pinned root target is silently dropped.
	h := newFakeHost()
	schedule(t, h, KindCrash, Params{At: time.Second, Node: pin(0)}, 1)
	h.drain()
	if len(h.log) != 0 {
		t.Fatalf("pinned-root crash acted: %v", h.log)
	}
}

func TestCrashInjectorDeterministicVictims(t *testing.T) {
	run := func() []string {
		h := newFakeHost()
		schedule(t, h, KindCrash, Params{At: time.Second, Duration: time.Second, Count: 4}, 7)
		h.drain()
		return h.log
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed picked different schedules:\n%v\n%v", a, b)
	}
}

func TestLinkLossRampPeaksAndClears(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindLinkLoss, Params{At: time.Second, Duration: 4 * time.Second, Peak: 0.5, Steps: 7, Node: pin(3)}, 1)

	// Mid-episode the focal node's links must be lossy in both directions.
	h.eng.Run(3 * time.Second)
	up := h.loss[[2]topology.NodeID{3, 0}]
	down := h.loss[[2]topology.NodeID{0, 3}]
	if up <= 0 || up > 0.5 || down != up {
		t.Fatalf("mid-episode loss up=%g down=%g, want symmetric in (0, 0.5]", up, down)
	}

	// After the episode everything is cleared.
	h.drain()
	for k, p := range h.loss {
		if p != 0 {
			t.Fatalf("link %v still lossy (%g) after the episode", k, p)
		}
	}
}

func TestLinkLossValidation(t *testing.T) {
	bad := []Params{
		{At: time.Second, Duration: 0, Peak: 0.5},           // no episode length
		{At: time.Second, Duration: time.Second},            // no peak
		{At: time.Second, Duration: time.Second, Peak: 1.5}, // peak >= 1
		{At: -time.Second, Duration: time.Second, Peak: 0.5},
	}
	for i, p := range bad {
		if err := Schedule(newFakeHost(), KindLinkLoss, p, 1, 0); err == nil {
			t.Fatalf("params %d accepted: %+v", i, p)
		}
	}
}

func TestBurstAddsAndRemovesQueries(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindBurst, Params{At: time.Second, Duration: 5 * time.Second, Period: 500 * time.Millisecond, Queries: 3}, 1)

	h.eng.Run(3 * time.Second)
	if len(h.queries) != 3 {
		t.Fatalf("mid-burst queries = %d, want 3", len(h.queries))
	}
	for id, spec := range h.queries {
		if id < burstIDBase {
			t.Fatalf("burst query ID %d collides with the scenario ID space", id)
		}
		if spec.Phase < time.Second || spec.Phase >= time.Second+spec.Period {
			t.Fatalf("burst phase %v outside first period after start", spec.Phase)
		}
	}
	h.drain()
	if len(h.queries) != 0 {
		t.Fatalf("queries survive the burst: %v", h.queries)
	}
}

func TestBurstValidation(t *testing.T) {
	bad := []Params{
		{At: time.Second, Duration: time.Second},                          // no period
		{At: time.Second, Period: time.Second},                            // no length
		{At: time.Second, Duration: time.Second, Period: 2 * time.Second}, // period > length
		{At: -time.Second, Duration: time.Second, Period: 100 * time.Millisecond},
	}
	for i, p := range bad {
		if err := Schedule(newFakeHost(), KindBurst, p, 1, 0); err == nil {
			t.Fatalf("params %d accepted: %+v", i, p)
		}
	}
}

func TestUnknownKindFails(t *testing.T) {
	if err := Schedule(newFakeHost(), "meteor", Params{}, 1, 0); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindsListsBuiltins(t *testing.T) {
	want := []string{KindCrash, KindLinkLoss, KindBurst}
	if got := Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
}

func pin(i int) *int { return &i }
