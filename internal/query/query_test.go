package query

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// stubShaper is a minimal recording shaper: greedy send, fixed timeout
// fraction, hook call log.
type stubShaper struct {
	calls    []string
	deadline func(q ID, k int) time.Duration
	specs    map[ID]Spec
}

func newStubShaper() *stubShaper { return &stubShaper{specs: make(map[ID]Spec)} }

func (s *stubShaper) log(ev string) { s.calls = append(s.calls, ev) }

func (s *stubShaper) QueryAdded(spec *Spec, children []NodeID) {
	s.specs[spec.ID] = *spec
	s.log("added")
}
func (s *stubShaper) ReportReady(q ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	s.log("ready")
	return readyAt, NoPhase
}
func (s *stubShaper) ReportSent(q ID, k int)   { s.log("sent") }
func (s *stubShaper) ReportFailed(q ID, k int) { s.log("failed") }
func (s *stubShaper) ReportReceived(q ID, c NodeID, k int, phase time.Duration) {
	s.log("received")
}
func (s *stubShaper) IntervalClosed(q ID, k int, missing []NodeID) {
	if len(missing) > 0 {
		s.log("closed-missing")
	} else {
		s.log("closed")
	}
}
func (s *stubShaper) CollectDeadline(q ID, k int) time.Duration {
	if s.deadline != nil {
		return s.deadline(q, k)
	}
	spec := s.specs[q]
	return spec.IntervalStart(k) + spec.Period*3/4
}
func (s *stubShaper) QueryRemoved(q ID)                    { s.log("query-removed") }
func (s *stubShaper) ChildAdded(q ID, c NodeID)            { s.log("child-added") }
func (s *stubShaper) ChildRemoved(q ID, c NodeID)          { s.log("child-removed") }
func (s *stubShaper) ParentChanged(q ID)                   { s.log("parent-changed") }
func (s *stubShaper) ControlReceived(from NodeID, msg any) { s.log("control") }

func (s *stubShaper) count(ev string) int {
	n := 0
	for _, c := range s.calls {
		if c == ev {
			n++
		}
	}
	return n
}

// sentRec records agent submissions instead of a real MAC.
type sentRec struct {
	dst   NodeID
	rep   *Report
	bytes int
	cb    mac.SendCallback
}

// testHost is a Host built from funcs. Nil failure handlers are no-ops;
// Send must be set.
type testHost struct {
	Send           func(dst NodeID, payload any, bytes int, cb mac.SendCallback)
	OnChildFailed  func(child NodeID)
	OnParentFailed func()
}

func (h *testHost) SendReport(dst NodeID, payload any, bytes int, cb mac.SendCallback) {
	h.Send(dst, payload, bytes, cb)
}

func (h *testHost) ChildFailed(child NodeID) {
	if h.OnChildFailed != nil {
		h.OnChildFailed(child)
	}
}

func (h *testHost) ParentFailed() {
	if h.OnParentFailed != nil {
		h.OnParentFailed()
	}
}

type testSink struct {
	arrivals  []time.Duration
	closures  []int // coverage per closed interval
	latencies []time.Duration
}

func (s *testSink) ReportArrived(q ID, k int, latency time.Duration, coverage int) {
	s.arrivals = append(s.arrivals, latency)
}

func (s *testSink) IntervalClosed(q ID, k int, latency time.Duration, coverage int) {
	s.closures = append(s.closures, coverage)
	s.latencies = append(s.latencies, latency)
}

// chainFixture builds a 3-node chain tree (0=root, 1 middle, 2 leaf) and
// an agent for the middle node with captured sends. Tests hook failure
// detection by setting the returned host's handler fields.
func chainFixture(t *testing.T) (*sim.Engine, *routing.Tree, *Agent, *stubShaper, *[]sentRec, *testHost) {
	t.Helper()
	eng := sim.New(1)
	topo, err := topology.FromPositions(geom.LinePlacement(3, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := routing.BuildBFS(topo, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sh := newStubShaper()
	var sent []sentRec
	host := &testHost{Send: func(dst NodeID, payload any, bytes int, cb mac.SendCallback) {
		sent = append(sent, sentRec{dst: dst, rep: payload.(*Report), bytes: bytes, cb: cb})
	}}
	a := NewAgent(eng, 1, tree, sh, host, nil, Config{FailureThreshold: 3}, 1)
	return eng, tree, a, sh, &sent, host
}

var spec = Spec{ID: 1, Period: time.Second, Phase: 100 * time.Millisecond, Class: 1}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{ID: 1, Period: 0}).Validate(); err == nil {
		t.Error("zero period accepted")
	}
	if err := (Spec{ID: 1, Period: time.Second, Phase: -1}).Validate(); err == nil {
		t.Error("negative phase accepted")
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestIntervalStart(t *testing.T) {
	if got := spec.IntervalStart(3); got != 3100*time.Millisecond {
		t.Fatalf("IntervalStart(3) = %v, want 3.1s", got)
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	_, _, a, _, _, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(&spec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestAggregationAndForwarding(t *testing.T) {
	eng, _, a, sh, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Child 2's report for interval 0 arrives 50ms into the interval.
	eng.Schedule(150*time.Millisecond, func() {
		a.HandleReport(2, &Report{Query: 1, Interval: 0, Coverage: 1, Phase: NoPhase})
	})
	eng.Run(300 * time.Millisecond)

	if len(*sent) != 1 {
		t.Fatalf("sent %d reports, want 1", len(*sent))
	}
	rep := (*sent)[0].rep
	if rep.Coverage != 2 {
		t.Fatalf("coverage = %d, want 2 (own sample + child)", rep.Coverage)
	}
	if (*sent)[0].dst != 0 {
		t.Fatalf("sent to %d, want parent 0", (*sent)[0].dst)
	}
	if sh.count("received") != 1 || sh.count("ready") != 1 {
		t.Fatalf("shaper calls = %v", sh.calls)
	}
	// MAC confirms → ReportSent.
	(*sent)[0].cb.SendDone(true)
	if sh.count("sent") != 1 {
		t.Fatal("ReportSent not invoked on MAC success")
	}
}

func TestTimeoutSendsPartialAggregate(t *testing.T) {
	eng, _, a, sh, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// The child never reports; the 0.75P deadline fires at 850ms.
	eng.Run(time.Second)
	if len(*sent) == 0 {
		t.Fatal("no report sent after collection timeout")
	}
	if (*sent)[0].rep.Coverage != 1 {
		t.Fatalf("coverage = %d, want 1 (own sample only)", (*sent)[0].rep.Coverage)
	}
	if sh.count("closed-missing") == 0 {
		t.Fatal("IntervalClosed not told about the missing child")
	}
	if a.Stats().Timeouts == 0 {
		t.Fatal("timeout not counted")
	}
}

func TestLateReportForwardedAsPassThrough(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Child's interval-0 report arrives after the interval timed out.
	eng.Schedule(950*time.Millisecond, func() {
		a.HandleReport(2, &Report{Query: 1, Interval: 0, Coverage: 5, Phase: NoPhase})
	})
	eng.Run(time.Second)
	var passThroughs int
	for _, s := range *sent {
		if s.rep.PassThrough {
			passThroughs++
			if s.rep.Coverage != 5 {
				t.Fatalf("pass-through coverage = %d, want 5", s.rep.Coverage)
			}
		}
	}
	if passThroughs != 1 {
		t.Fatalf("pass-throughs = %d, want 1", passThroughs)
	}
	if a.Stats().LateReports != 1 {
		t.Fatalf("LateReports = %d, want 1", a.Stats().LateReports)
	}
}

func TestPassThroughMergedIntoOpenInterval(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	longDeadline := newStubShaper()
	longDeadline.deadline = func(q ID, k int) time.Duration {
		return spec.IntervalStart(k) + 900*time.Millisecond
	}
	a.shaper = longDeadline
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// A pass-through from a grandchild arrives while interval 0 is open:
	// it must merge, not forward separately.
	eng.Schedule(200*time.Millisecond, func() {
		a.HandleReport(2, &Report{Query: 1, Interval: 0, Coverage: 3, PassThrough: true, Phase: NoPhase})
	})
	// Then the child's own report closes the interval.
	eng.Schedule(300*time.Millisecond, func() {
		a.HandleReport(2, &Report{Query: 1, Interval: 0, Coverage: 1, Phase: NoPhase})
	})
	eng.Run(time.Second)
	if len(*sent) != 1 {
		t.Fatalf("sent %d reports, want 1 merged aggregate", len(*sent))
	}
	rep := (*sent)[0].rep
	if rep.Coverage != 5 { // own 1 + pass-through 3 + child 1
		t.Fatalf("coverage = %d, want 5", rep.Coverage)
	}
	if rep.PassThrough {
		t.Fatal("merged aggregate must not be marked pass-through")
	}
}

func TestReportFailedHookAndFailureDetection(t *testing.T) {
	eng, _, a, sh, sent, host := chainFixture(t)
	parentFailures := 0
	host.OnParentFailed = func() { parentFailures++ }
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Three intervals: the child reports each time, the interval closes,
	// and each submitted report fails at the MAC — three consecutive
	// delivery failures, each on its own report, as the real MAC
	// produces them.
	for k := 0; k < 3; k++ {
		k := k
		eng.Schedule(spec.IntervalStart(k)+50*time.Millisecond, func() {
			a.HandleReport(2, &Report{Query: 1, Interval: k, Coverage: 1, Phase: NoPhase})
		})
	}
	for k := 0; k < 3; k++ {
		eng.Run(spec.IntervalStart(k) + 100*time.Millisecond)
		if len(*sent) != k+1 {
			t.Fatalf("after interval %d: sent = %d, want %d", k, len(*sent), k+1)
		}
		(*sent)[k].cb.SendDone(false)
	}
	if sh.count("failed") != 3 {
		t.Fatalf("ReportFailed calls = %d, want 3", sh.count("failed"))
	}
	if parentFailures != 1 {
		t.Fatalf("parent failure handler calls = %d, want 1", parentFailures)
	}
	if a.Stats().SendFailures != 3 {
		t.Fatalf("SendFailures = %d, want 3", a.Stats().SendFailures)
	}
}

func TestChildFailureDetection(t *testing.T) {
	eng, _, a, _, _, host := chainFixture(t)
	var failedChildren []NodeID
	host.OnChildFailed = func(c NodeID) { failedChildren = append(failedChildren, c) }
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Three intervals with the child silent → child declared failed.
	eng.Run(3100 * time.Millisecond)
	if len(failedChildren) != 1 || failedChildren[0] != 2 {
		t.Fatalf("failed children = %v, want [2]", failedChildren)
	}
}

func TestChildRemovedClosesWaitingInterval(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Interval 0 starts at 100ms and waits for child 2. Removing the
	// child must close it immediately with the node's own sample.
	eng.Schedule(200*time.Millisecond, func() { a.ChildRemoved(2) })
	eng.Run(300 * time.Millisecond)
	if len(*sent) != 1 {
		t.Fatalf("sent = %d, want 1 (interval closed on child removal)", len(*sent))
	}
	if (*sent)[0].rep.Coverage != 1 {
		t.Fatalf("coverage = %d, want 1", (*sent)[0].rep.Coverage)
	}
}

func TestRootRecordsArrivalsAndClosures(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	tree, _ := routing.BuildBFS(topo, 0, 0)
	sink := &testSink{}
	sh := newStubShaper()
	a := NewAgent(eng, 0, tree, sh, &testHost{Send: func(NodeID, any, int, mac.SendCallback) {
		t.Fatal("root must not send reports")
	}}, sink, Config{FailureThreshold: 3}, 1)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(160*time.Millisecond, func() {
		a.HandleReport(1, &Report{Query: 1, Interval: 0, Coverage: 1, Phase: NoPhase})
	})
	eng.Run(500 * time.Millisecond)
	if len(sink.arrivals) != 1 || sink.arrivals[0] != 60*time.Millisecond {
		t.Fatalf("arrivals = %v, want [60ms]", sink.arrivals)
	}
	if len(sink.closures) != 1 || sink.closures[0] != 2 {
		t.Fatalf("closures = %v, want [2]", sink.closures)
	}
}

func TestStalePayloadFromNonChildNotTreatedAsScheduled(t *testing.T) {
	eng, tree, a, sh, _, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Node 0 is our parent, not a child: its report must not feed the
	// shaper's per-child schedule.
	_ = tree
	eng.Schedule(150*time.Millisecond, func() {
		a.HandleReport(0, &Report{Query: 1, Interval: 0, Coverage: 1, Phase: NoPhase})
	})
	eng.Run(200 * time.Millisecond)
	if sh.count("received") != 0 {
		t.Fatal("non-child report updated the shaper's child schedule")
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	a.Stop()
	eng.Run(3 * time.Second)
	if len(*sent) != 0 {
		t.Fatalf("stopped agent sent %d reports", len(*sent))
	}
}

func TestUnknownQueryIgnored(t *testing.T) {
	eng, _, a, _, _, _ := chainFixture(t)
	a.HandleReport(2, &Report{Query: 99, Interval: 0, Coverage: 1, Phase: NoPhase})
	eng.Run(time.Millisecond) // no panic
}

func TestPhaseBytesAddedWhenPiggybacking(t *testing.T) {
	eng := sim.New(1)
	topo, _ := topology.FromPositions(geom.LinePlacement(3, 100), 125)
	tree, _ := routing.BuildBFS(topo, 0, 0)
	// Leaf agent (node 2) with a shaper that always piggybacks.
	sh := newStubShaper()
	var sent []sentRec
	phaseShaper := &phaseStub{stubShaper: sh}
	a := NewAgent(eng, 2, tree, phaseShaper, &testHost{Send: func(dst NodeID, payload any, bytes int, cb mac.SendCallback) {
		sent = append(sent, sentRec{dst: dst, rep: payload.(*Report), bytes: bytes, cb: cb})
	}}, nil, Config{FailureThreshold: 3}, 1)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	eng.Run(200 * time.Millisecond)
	if len(sent) != 1 {
		t.Fatalf("sent = %d, want 1", len(sent))
	}
	if sent[0].bytes != 56 {
		t.Fatalf("bytes = %d, want 52 + 4 phase", sent[0].bytes)
	}
	if a.Stats().PhaseUpdatesSent != 1 {
		t.Fatalf("PhaseUpdatesSent = %d, want 1", a.Stats().PhaseUpdatesSent)
	}
}

type phaseStub struct{ *stubShaper }

func (p *phaseStub) ReportReady(q ID, k int, readyAt time.Duration) (time.Duration, time.Duration) {
	return readyAt, readyAt + time.Second
}

func TestStopBreaksAndResumeRestartsIntervalChain(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	// Leaf-like behavior: no child reports, so intervals close by
	// deadline (spec.Period*3/4) and submit immediately.
	eng.Run(spec.IntervalStart(1)) // interval 0 closed and sent
	before := len(*sent)
	if before == 0 {
		t.Fatal("no report before the outage")
	}

	a.Stop()
	eng.Run(spec.IntervalStart(4)) // ticks 1..3 fire into the stopped agent
	if got := len(*sent); got != before {
		t.Fatalf("stopped agent submitted %d new reports", got-before)
	}

	a.Resume()
	eng.Run(spec.IntervalStart(8))
	after := len(*sent)
	if after <= before {
		t.Fatal("resumed agent produced no reports")
	}
	// The restarted chain begins at the next interval boundary after the
	// resume point, skipping the missed ones.
	first := (*sent)[before].rep.Interval
	if first < 4 {
		t.Fatalf("first post-resume interval = %d, want >= 4 (missed intervals must be skipped)", first)
	}
}

func TestResumeWithoutStopIsNoOp(t *testing.T) {
	eng, _, a, _, sent, _ := chainFixture(t)
	if err := a.Register(&spec); err != nil {
		t.Fatal(err)
	}
	a.Resume() // not stopped: must not double-schedule the chain
	eng.Run(spec.IntervalStart(2))
	for i := 1; i < len(*sent); i++ {
		if (*sent)[i].rep.Interval == (*sent)[i-1].rep.Interval {
			t.Fatalf("interval %d reported twice", (*sent)[i].rep.Interval)
		}
	}
}
