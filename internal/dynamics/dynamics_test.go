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
	dead    map[topology.NodeID]bool
	queries map[query.ID]query.Spec
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		eng:     sim.New(1),
		loss:    map[[2]topology.NodeID]float64{},
		crashed: map[topology.NodeID]bool{},
		dead:    map[topology.NodeID]bool{},
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
	if h.dead[id] {
		return // killed while down: the outage ends in death
	}
	h.log = append(h.log, fmt.Sprintf("%v recover %d", h.eng.Now(), id))
}
func (h *fakeHost) Kill(id topology.NodeID) {
	h.dead[id] = true
	h.log = append(h.log, fmt.Sprintf("%v kill %d", h.eng.Now(), id))
}

// Victim draws a leaf of the star from the engine's rng: the star has
// no inner node but the root.
func (h *fakeHost) Victim() topology.NodeID {
	return topology.NodeID(1 + h.eng.Rand().Intn(9))
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
	if err := Schedule(h, []Row{{kind, p}}, seed); err != nil {
		t.Fatal(err)
	}
}

func TestFailKillsPinnedNode(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindFail, Params{At: time.Second, Node: pin(3)}, 1)
	h.drain()
	if want := []string{"1s kill 3"}; !reflect.DeepEqual(h.log, want) {
		t.Fatalf("log %v, want %v", h.log, want)
	}
}

func TestFailIgnoresRootPin(t *testing.T) {
	h := newFakeHost()
	schedule(t, h, KindFail, Params{At: time.Second, Node: pin(0)}, 1)
	h.drain()
	if len(h.log) != 0 {
		t.Fatalf("pinned-root failure acted: %v", h.log)
	}
}

// TestFailRandomVictimFromEngineRng: an unpinned failure takes its
// victim from Host.Victim, which draws from the engine's rng at build
// time, not from the row's private stream: the row's seed does not
// move it, and the engine's first draw names it.
func TestFailRandomVictimFromEngineRng(t *testing.T) {
	want := fmt.Sprintf("2s kill %d", 1+sim.New(1).Rand().Intn(9))
	for _, seed := range []int64{1, 99} {
		h := newFakeHost()
		schedule(t, h, KindFail, Params{At: 2 * time.Second, Seed: seed}, seed)
		h.drain()
		if len(h.log) != 1 || h.log[0] != want {
			t.Fatalf("seed %d: log %v, want [%s]", seed, h.log, want)
		}
	}
}

// TestFailWinsOverCrashRecovery: a node killed while a crash has it
// down stays down when the outage ends.
func TestFailWinsOverCrashRecovery(t *testing.T) {
	h := newFakeHost()
	rows := []Row{
		{KindCrash, Params{At: time.Second, Duration: 3 * time.Second, Node: pin(4)}},
		{KindFail, Params{At: 2 * time.Second, Node: pin(4)}},
	}
	if err := Schedule(h, rows, 1); err != nil {
		t.Fatal(err)
	}
	h.drain()
	if want := []string{"1s crash 4", "2s kill 4"}; !reflect.DeepEqual(h.log, want) {
		t.Fatalf("log %v, want %v", h.log, want)
	}
}

func TestStopDeregistersQuery(t *testing.T) {
	h := newFakeHost()
	h.queries[5] = query.Spec{ID: 5, Period: time.Second}
	h.queries[6] = query.Spec{ID: 6, Period: time.Second}
	schedule(t, h, KindStop, Params{At: 2 * time.Second, Query: 5}, 1)
	h.eng.Run(time.Second)
	if len(h.queries) != 2 {
		t.Fatalf("stop acted before its start: %v", h.queries)
	}
	h.drain()
	if _, ok := h.queries[5]; ok || len(h.queries) != 1 {
		t.Fatalf("queries after the stop: %v, want only 6", h.queries)
	}
}

// TestStreamlessRowsKeepStreams: fail and stop rows draw no private
// stream, so rows of theirs ahead of a crash leave its victims alone.
func TestStreamlessRowsKeepStreams(t *testing.T) {
	crash := Row{KindCrash, Params{At: time.Second, Count: 3}}
	run := func(rows ...Row) []string {
		h := newFakeHost()
		if err := Schedule(h, rows, 7); err != nil {
			t.Fatal(err)
		}
		h.drain()
		var crashes []string
		for _, l := range h.log {
			if strings.Contains(l, "crash") {
				crashes = append(crashes, l)
			}
		}
		return crashes
	}
	alone := run(crash)
	behind := run(Row{KindStop, Params{At: time.Second, Query: 1}}, Row{KindFail, Params{At: 5 * time.Second, Node: pin(2)}}, crash)
	if !reflect.DeepEqual(alone, behind) {
		t.Fatalf("crash victims moved behind fail and stop rows: %v, then %v", alone, behind)
	}
}

func TestNegativeNodePinRefused(t *testing.T) {
	for _, kind := range []string{KindFail, KindCrash, KindLinkLoss} {
		p := Params{At: time.Second, Duration: time.Second, Peak: 0.5, Node: pin(-5)}
		if err := Check(kind, p); err == nil {
			t.Errorf("%s: node -5 accepted", kind)
		}
	}
}

func TestFailAndStopValidation(t *testing.T) {
	for _, kind := range []string{KindFail, KindStop} {
		if err := Check(kind, Params{At: -time.Second}); err == nil {
			t.Errorf("%s: negative start accepted", kind)
		}
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
		if err := Schedule(newFakeHost(), []Row{{KindLinkLoss, p}}, 1); err == nil {
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
		if err := Schedule(newFakeHost(), []Row{{KindBurst, p}}, 1); err == nil {
			t.Fatalf("params %d accepted: %+v", i, p)
		}
	}
}

func TestUnknownKindFails(t *testing.T) {
	if err := Schedule(newFakeHost(), []Row{{"meteor", Params{}}}, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestKindsListsBuiltins(t *testing.T) {
	want := []string{KindFail, KindStop, KindCrash, KindLinkLoss, KindBurst}
	if got := Kinds(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
}

func pin(i int) *int { return &i }
