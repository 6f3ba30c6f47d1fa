package core

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// fakeEnv is a scripted core.Env for shaper unit tests.
type fakeEnv struct {
	eng       *sim.Engine
	self      query.NodeID
	root      bool
	rank      int
	ranks     map[query.NodeID]int
	maxRank   int
	phaseReqs []query.NodeID
}

func (f *fakeEnv) Now() time.Duration { return f.eng.Now() }
func (f *fakeEnv) Self() query.NodeID { return f.self }
func (f *fakeEnv) IsRoot() bool       { return f.root }
func (f *fakeEnv) Rank() int          { return f.rank }
func (f *fakeEnv) RankOf(n query.NodeID) int {
	if r, ok := f.ranks[n]; ok {
		return r
	}
	return 0
}
func (f *fakeEnv) MaxRank() int { return f.maxRank }
func (f *fakeEnv) RequestPhaseUpdate(child query.NodeID, q query.ID) {
	f.phaseReqs = append(f.phaseReqs, child)
}

func shaperFixture(t *testing.T, rank, maxRank int) (*sim.Engine, *fakeEnv, *SafeSleep) {
	t.Helper()
	eng := sim.New(1)
	r := radio.New(eng, radio.Config{})
	ss := NewSafeSleep(eng, r, SafeSleepOptions{Disabled: true}) // bookkeeping only
	env := &fakeEnv{eng: eng, self: 1, rank: rank, maxRank: maxRank, ranks: map[query.NodeID]int{}}
	return eng, env, ss
}

var testSpec = query.Spec{ID: 1, Period: time.Second, Phase: 2 * time.Second, Class: 1}

// --- Static: NTS-SS (l = 0) ---------------------------------------------

func TestStaticNTSSchedule(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	n := NewNTS(env, ss)
	n.QueryAdded(&testSpec, []query.NodeID{7})

	// s(k) = r(k) = φ + kP.
	sendAt, phase := n.ReportReady(1, 0, 2*time.Second)
	if sendAt != 2*time.Second || phase != query.NoPhase {
		t.Fatalf("ReportReady = (%v, %v), want (2s, NoPhase)", sendAt, phase)
	}
	// Late report goes immediately with no penalty.
	sendAt, _ = n.ReportReady(1, 1, 3100*time.Millisecond)
	if sendAt != 3100*time.Millisecond {
		t.Fatalf("late ReportReady = %v, want immediate", sendAt)
	}
	// snext advances on send.
	n.ReportSent(1, 1)
	if got := ss.sendTime(1); got != 4*time.Second {
		t.Fatalf("snext = %v after sending k=1, want 4s", got)
	}
	// rnext advances on receive.
	n.ReportReceived(1, 7, 2, query.NoPhase)
	if got := ss.recvTime(1, 7); got != 5*time.Second {
		t.Fatalf("rnext = %v after receiving k=2, want 5s", got)
	}
}

func TestStaticNTSTimeoutByRank(t *testing.T) {
	for _, c := range []struct {
		rank, maxRank int
		want          time.Duration
	}{
		// tTO(d) = (d+1)·D/M with D = P: (2+1)·1s/4 = 750ms past the start.
		{2, 4, 2750 * time.Millisecond},
		// M does not divide (d+1)·P: multiplying first gives 4s/7 =
		// 571,428,571ns, where 4·(1s/7) would give 571,428,568ns.
		{3, 7, 2*time.Second + 571428571},
	} {
		_, env, ss := shaperFixture(t, c.rank, c.maxRank)
		n := NewNTS(env, ss)
		n.QueryAdded(&testSpec, nil)
		if got := n.CollectDeadline(1, 0); got != c.want {
			t.Errorf("d=%d M=%d: CollectDeadline = %v, want %v", c.rank, c.maxRank, got, c.want)
		}
	}
}

func TestStaticNTSIntervalClosedAdvancesMissing(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	n := NewNTS(env, ss)
	n.QueryAdded(&testSpec, []query.NodeID{7, 8})
	n.IntervalClosed(1, 0, []query.NodeID{8})
	if got := ss.recvTime(1, 8); got != 3*time.Second {
		t.Fatalf("rnext(8) = %v after timeout of k=0, want 3s", got)
	}
	// Child 7 (which did report) is advanced by ReportReceived, not here.
	if got := ss.recvTime(1, 7); got != 2*time.Second {
		t.Fatalf("rnext(7) = %v, want unchanged 2s", got)
	}
}

// --- Static: STS-SS (l = D/M) --------------------------------------------

func TestStaticSTSSchedule(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	env.ranks[7] = 1
	s := NewSTS(env, ss, 400*time.Millisecond, false) // l = D/M = 100ms
	s.QueryAdded(&testSpec, []query.NodeID{7})

	// s(k) = φ + kP + l·d = 2s + 200ms.
	sendAt, _ := s.ReportReady(1, 0, 2*time.Second)
	if sendAt != 2200*time.Millisecond {
		t.Fatalf("ReportReady = %v, want 2.2s (buffered until s(0))", sendAt)
	}
	// r(k, c) = φ + kP + l·rank(c) = 2s + 100ms for the rank-1 child.
	if got := ss.recvTime(1, 7); got != 2100*time.Millisecond {
		t.Fatalf("rnext(7) = %v, want 2.1s", got)
	}
	// A late report goes immediately.
	sendAt, _ = s.ReportReady(1, 1, 3500*time.Millisecond)
	if sendAt != 3500*time.Millisecond {
		t.Fatalf("late ReportReady = %v, want immediate", sendAt)
	}
}

func TestStaticSTSDeadlineDefaultsToPeriod(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	s := NewSTS(env, ss, 0, false)
	s.QueryAdded(&testSpec, nil)
	// l = P/M = 250ms; s(0) = 2s + 250ms.
	sendAt, _ := s.ReportReady(1, 0, 2*time.Second)
	if sendAt != 2250*time.Millisecond {
		t.Fatalf("ReportReady = %v, want 2.25s", sendAt)
	}
}

func TestStaticSTSRankChangeMovesSchedule(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	s := NewSTS(env, ss, 400*time.Millisecond, false)
	s.QueryAdded(&testSpec, nil)
	sendAt, _ := s.ReportReady(1, 0, 2*time.Second)
	if sendAt != 2100*time.Millisecond {
		t.Fatalf("ReportReady = %v, want 2.1s at rank 1", sendAt)
	}
	// After re-parenting the node's rank rises to 3: schedules shift.
	env.rank = 3
	s.ParentChanged(1)
	sendAt, _ = s.ReportReady(1, 1, 3*time.Second)
	if sendAt != 3300*time.Millisecond {
		t.Fatalf("ReportReady = %v after rank change, want 3.3s", sendAt)
	}
}

func TestStaticSTSCollectDeadlineClampedToSendTime(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	// D = 20ms gives l = 5ms < tTO: s(0) + l − tTO would precede s(0).
	s := NewSTS(env, ss, 20*time.Millisecond, false)
	s.QueryAdded(&testSpec, nil)
	if got, want := s.CollectDeadline(1, 0), 2010*time.Millisecond; got != want {
		t.Fatalf("CollectDeadline = %v, want clamped to s(0) = %v", got, want)
	}
}

// --- DTS ---------------------------------------------------------------

func TestDTSOnTimeKeepsSchedule(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, []query.NodeID{7})

	// Ready exactly at s(0) = φ: no shift, s(1) = φ + P.
	sendAt, phase := d.ReportReady(1, 0, 2*time.Second)
	if sendAt != 2*time.Second || phase != query.NoPhase {
		t.Fatalf("ReportReady = (%v, %v), want (2s, NoPhase)", sendAt, phase)
	}
	d.ReportSent(1, 0)
	if got := ss.sendTime(1); got != 3*time.Second {
		t.Fatalf("snext = %v, want 3s", got)
	}
	if d.Stats().PhaseShifts != 0 {
		t.Fatalf("PhaseShifts = %d, want 0", d.Stats().PhaseShifts)
	}
}

func TestDTSPhaseShiftOnLateReport(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, nil)

	// Ready 80ms late: send immediately, postpone s(1), piggyback it.
	readyAt := 2080 * time.Millisecond
	sendAt, phase := d.ReportReady(1, 0, readyAt)
	if sendAt != readyAt {
		t.Fatalf("sendAt = %v, want immediate %v", sendAt, readyAt)
	}
	if phase != readyAt+time.Second {
		t.Fatalf("phase = %v, want s(1) = %v", phase, readyAt+time.Second)
	}
	if d.Stats().PhaseShifts != 1 || d.Stats().PhaseUpdatesSent != 1 {
		t.Fatalf("stats = %+v, want 1 shift and 1 update", d.Stats())
	}
	d.ReportSent(1, 0)
	if got := ss.sendTime(1); got != readyAt+time.Second {
		t.Fatalf("snext = %v, want shifted schedule", got)
	}
	// Next interval ready on (shifted) time: no new shift.
	_, phase = d.ReportReady(1, 1, readyAt+time.Second)
	if phase != query.NoPhase {
		t.Fatalf("phase = %v on on-time report, want NoPhase", phase)
	}
}

func TestDTSParentTracksChildPhase(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, []query.NodeID{7})

	// Report 0 without phase: r(1) = r(0) + P.
	d.ReportReceived(1, 7, 0, query.NoPhase)
	if got := ss.recvTime(1, 7); got != 3*time.Second {
		t.Fatalf("rnext = %v, want 3s", got)
	}
	// Report 1 with a phase update: adopt it directly.
	d.ReportReceived(1, 7, 1, 4200*time.Millisecond)
	if got := ss.recvTime(1, 7); got != 4200*time.Millisecond {
		t.Fatalf("rnext = %v, want the piggybacked 4.2s", got)
	}
}

func TestDTSGapTriggersResync(t *testing.T) {
	eng, env, ss := shaperFixture(t, 2, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, []query.NodeID{7})

	d.ReportReceived(1, 7, 0, query.NoPhase)
	eng.Run(5 * time.Second)
	// Interval 1 was lost; report 2 arrives with no phase → gap.
	d.ReportReceived(1, 7, 2, query.NoPhase)
	if len(env.phaseReqs) != 1 || env.phaseReqs[0] != 7 {
		t.Fatalf("phase requests = %v, want one to child 7", env.phaseReqs)
	}
	// The node must stay awake for this child: rnext pinned to now.
	if got := ss.recvTime(1, 7); got != eng.Now() {
		t.Fatalf("rnext = %v, want pinned to now (%v)", got, eng.Now())
	}
	// Still unsynced on the next phase-less report: request again.
	d.ReportReceived(1, 7, 3, query.NoPhase)
	if len(env.phaseReqs) != 2 {
		t.Fatalf("phase requests = %d, want 2 (still resyncing)", len(env.phaseReqs))
	}
	// A phase update ends the resync.
	d.ReportReceived(1, 7, 4, 9*time.Second)
	if got := ss.recvTime(1, 7); got != 9*time.Second {
		t.Fatalf("rnext = %v, want 9s", got)
	}
	d.ReportReceived(1, 7, 5, query.NoPhase)
	if len(env.phaseReqs) != 2 {
		t.Fatal("resync flag not cleared by the phase update")
	}
	if got := ss.recvTime(1, 7); got != 10*time.Second {
		t.Fatalf("rnext = %v, want 10s (normal +P advance resumed)", got)
	}
}

func TestDTSPhaseRequestForcesUpdate(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, nil)

	d.ControlReceived(9, PhaseRequest{Query: 1})
	_, phase := d.ReportReady(1, 0, 2*time.Second) // on time, would be NoPhase
	if phase == query.NoPhase {
		t.Fatal("phase request did not force a piggybacked update")
	}
	// One-shot: the next on-time report carries nothing.
	d.ReportSent(1, 0)
	_, phase = d.ReportReady(1, 1, 3*time.Second)
	if phase != query.NoPhase {
		t.Fatal("forcePhase not consumed")
	}
}

func TestDTSParentChangedForcesUpdate(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, nil)
	d.ParentChanged(1)
	_, phase := d.ReportReady(1, 0, 2*time.Second)
	if phase == query.NoPhase {
		t.Fatal("first report to a new parent must carry a phase update")
	}
}

func TestDTSReportFailedAdvancesAndFlags(t *testing.T) {
	_, env, ss := shaperFixture(t, 1, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, nil)
	_, _ = d.ReportReady(1, 0, 2*time.Second)
	d.ReportFailed(1, 0)
	if got := ss.sendTime(1); got != 3*time.Second {
		t.Fatalf("snext = %v after failed send, want advanced to 3s", got)
	}
	_, phase := d.ReportReady(1, 1, 3*time.Second)
	if phase == query.NoPhase {
		t.Fatal("report after a loss must carry a phase update for resync")
	}
}

func TestDTSChildAddedStaysAwakeUntilFirstReport(t *testing.T) {
	eng, env, ss := shaperFixture(t, 2, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, nil)
	eng.Run(5 * time.Second)
	d.ChildAdded(1, 7)
	if got := ss.recvTime(1, 7); got != eng.Now() {
		t.Fatalf("rnext = %v for a new child, want now (stay awake)", got)
	}
	// First report (with phase, per ParentChanged on the child side)
	// synchronizes without a gap false-positive.
	d.ReportReceived(1, 7, 4, 6*time.Second)
	if len(env.phaseReqs) != 0 {
		t.Fatal("gap detection misfired on a new child's first report")
	}
}

func TestDTSChildRemovedForgetsState(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, []query.NodeID{7})
	d.ChildRemoved(1, 7)
	if ss.hasRecv(1, 7) {
		t.Fatal("SS still tracks the removed child")
	}
	_ = env
}

func TestDTSCollectDeadline(t *testing.T) {
	_, env, ss := shaperFixture(t, 2, 4)
	d := NewDTS(env, ss, false)
	d.QueryAdded(&testSpec, []query.NodeID{7, 8})
	// Children at r(0)=φ: deadline = max(rnext) + tTO = 2s + 50ms.
	if got := d.CollectDeadline(1, 0); got != 2050*time.Millisecond {
		t.Fatalf("CollectDeadline = %v, want 2.05s", got)
	}
	// After child 8 phase-shifts to 2.4s, the deadline follows.
	d.ReportReceived(1, 8, 0, 3400*time.Millisecond)
	if got := d.CollectDeadline(1, 1); got != 3450*time.Millisecond {
		t.Fatalf("CollectDeadline = %v, want 3.45s", got)
	}
}

func TestRootHasNoSendSchedule(t *testing.T) {
	_, env, ss := shaperFixture(t, 4, 4)
	env.root = true
	for _, s := range []query.Shaper{NewNTS(env, ss), NewSTS(env, ss, 0, false), NewDTS(env, ss, false)} {
		s.QueryAdded(&query.Spec{ID: query.ID(len(ss.nextSend) + 10), Period: time.Second}, nil)
	}
	if len(ss.nextSend) != 0 {
		t.Fatalf("root acquired %d snext entries, want 0", len(ss.nextSend))
	}
}
