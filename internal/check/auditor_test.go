package check

import (
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

func newTestAuditor() (*Auditor, *sim.Engine) {
	eng := sim.New(1)
	return New(eng, 0), eng
}

// TestInvariantsFire drives each auditor hook with a deliberately
// corrupted observation and verifies the matching rule trips — the
// auditor must not only pass clean runs, it must actually catch broken
// ones.
func TestInvariantsFire(t *testing.T) {
	frame := &phy.Frame{ID: 7, Src: 3, Dst: 4, Bytes: 52}
	spec := query.Spec{ID: 1, Period: time.Second, Phase: 100 * time.Millisecond}

	cases := []struct {
		name    string
		rule    string
		corrupt func(a *Auditor)
	}{
		{
			name: "event pops travel back in time",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(20*time.Millisecond, 5)
				a.EventFired(10*time.Millisecond, 6)
			},
		},
		{
			name: "event pops repeat a (at, seq) pair",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(20*time.Millisecond, 5)
				a.EventFired(20*time.Millisecond, 5)
			},
		},
		{
			name: "event at negative time",
			rule: "event-order",
			corrupt: func(a *Auditor) {
				a.EventFired(-time.Millisecond, 0)
			},
		},
		{
			name: "transmission from a powered-down radio",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.Off, true)
			},
		},
		{
			name: "transmission from a disabled (crashed) station",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.Idle, false)
			},
		},
		{
			name: "transmission while transitioning",
			rule: "tx-awake",
			corrupt: func(a *Auditor) {
				a.TxStarted(frame, radio.TurningOn, true)
			},
		},
		{
			name: "data transmit inside the NAV",
			rule: "nav-respected",
			corrupt: func(a *Auditor) {
				a.DataTransmit(3, 10*time.Millisecond, 12*time.Millisecond)
			},
		},
		{
			name: "sleep through a sub-break-even gap",
			rule: "break-even",
			corrupt: func(a *Auditor) {
				a.Slept(3, 0, 2*time.Millisecond, 3*time.Millisecond)
			},
		},
		{
			name: "report from an unregistered query",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.ReportArrived(99, 0, time.Millisecond, 1)
			},
		},
		{
			name: "report for a negative interval",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.ReportArrived(spec.ID, -1, time.Millisecond, 1)
			},
		},
		{
			name: "report arriving before its interval started",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.ReportArrived(spec.ID, 3, -time.Millisecond, 1)
			},
		},
		{
			name: "interval closed with zero coverage",
			rule: "report-registered",
			corrupt: func(a *Auditor) {
				a.RegisterQuery(spec)
				a.IntervalClosed(spec.ID, 0, time.Millisecond, 0)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := newTestAuditor()
			tc.corrupt(a)
			sum := a.Summary()
			if sum.Total == 0 {
				t.Fatalf("corrupted observation did not trip any invariant")
			}
			found := false
			for _, v := range sum.Violations {
				if v.Rule == tc.rule {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("expected rule %q to fire, got %v", tc.rule, sum.Violations)
			}
		})
	}
}

// TestCleanObservationsStayClean feeds the auditor a well-formed
// observation sequence and expects no violations.
func TestCleanObservationsStayClean(t *testing.T) {
	a, _ := newTestAuditor()
	spec := query.Spec{ID: 1, Period: time.Second}
	a.RegisterQuery(spec)
	a.EventFired(0, 0)
	a.EventFired(0, 1)
	a.EventFired(time.Millisecond, 2)
	a.TxStarted(&phy.Frame{ID: 1, Src: 2, Dst: 3, Bytes: 52}, radio.Idle, true)
	a.DataTransmit(2, 10*time.Millisecond, 10*time.Millisecond) // NAV expired exactly now: legal
	a.Slept(2, 0, 10*time.Millisecond, 3*time.Millisecond)
	a.ReportArrived(1, 0, 50*time.Millisecond, 3)
	a.IntervalClosed(1, 0, 60*time.Millisecond, 3)
	sum := a.Summary()
	if sum.Total != 0 {
		t.Fatalf("clean sequence produced violations: %v", sum.Violations)
	}
	if sum.Events != 3 {
		t.Fatalf("Events = %d, want 3", sum.Events)
	}
}

// radioForward is a test listener passing a radio's transitions to the
// auditor under its watch handle, as a run's radio tap does.
type radioForward struct {
	a *Auditor
	h int
}

func (f radioForward) RadioStateChanged(old, new radio.State) { f.a.RadioChanged(f.h, old, new) }

// TestRadioWatchCatchesAccountingDrift builds a real radio, then
// verifies the watcher accepts its (correct) accounting, and that the
// digest reflects transitions.
func TestRadioWatchCatchesAccountingDrift(t *testing.T) {
	a, eng := newTestAuditor()
	r := radio.New(eng, radio.Config{TurnOnDelay: time.Millisecond, TurnOffDelay: time.Millisecond})
	r.Subscribe(radioForward{a: a, h: a.WatchRadio(5, r, radio.Mica2Power())})
	eng.Schedule(10*time.Millisecond, r.TurnOff)
	eng.Schedule(30*time.Millisecond, r.TurnOn)
	eng.Run(50 * time.Millisecond)
	sum := a.Summary()
	if sum.Total != 0 {
		t.Fatalf("correct radio accounting flagged: %v", sum.Violations)
	}
	if sum.Digest == New(eng, 0).Summary().Digest {
		t.Fatal("radio transitions did not reach the digest")
	}
}

// TestDigestDeterministicAndSensitive: identical observation streams
// hash identically; a one-record difference changes the hash.
func TestDigestDeterministicAndSensitive(t *testing.T) {
	feed := func(n int) string {
		a, _ := newTestAuditor()
		for i := 0; i < n; i++ {
			a.EventFired(time.Duration(i)*time.Millisecond, uint64(i))
		}
		return a.Summary().Digest
	}
	if feed(10) != feed(10) {
		t.Fatal("identical streams produced different digests")
	}
	if feed(10) == feed(11) {
		t.Fatal("different streams produced identical digests")
	}
}

// TestBehaviorDigestIgnoresSchedulerPops: two streams that differ only
// in their scheduler pops (sequence numbers, event count) share a
// behaviour digest and differ in the full one; a different transmission
// moves both, and pops alone leave the behaviour digest at the empty
// hash.
func TestBehaviorDigestIgnoresSchedulerPops(t *testing.T) {
	feed := func(seqs []uint64, bytes int) *Summary {
		a, _ := newTestAuditor()
		for i, seq := range seqs {
			a.EventFired(time.Duration(i)*time.Millisecond, seq)
		}
		a.TxStarted(&phy.Frame{ID: 1, Src: 2, Dst: 3, Bytes: bytes}, radio.Idle, true)
		return a.Summary()
	}
	base := feed([]uint64{1, 2, 3}, 40)
	reseq := feed([]uint64{4, 9, 11, 12}, 40)
	if base.Behavior != reseq.Behavior {
		t.Errorf("re-sequenced pops moved the behaviour digest: %s vs %s", base.Behavior, reseq.Behavior)
	}
	if base.Digest == reseq.Digest {
		t.Error("re-sequenced pops left the full digest unchanged")
	}
	other := feed([]uint64{1, 2, 3}, 41)
	if other.Behavior == base.Behavior || other.Digest == base.Digest {
		t.Error("a different transmission did not move both digests")
	}
	a, _ := newTestAuditor()
	a.EventFired(0, 1)
	if empty := New(nil, 0).Summary(); a.Summary().Behavior != empty.Behavior || len(empty.Behavior) != 16 {
		t.Errorf("pops alone moved the behaviour digest %q from the empty hash %q", a.Summary().Behavior, empty.Behavior)
	}
}

// TestViolationCapAndTotal: retained violations are capped, the total
// keeps counting, and Summary carries both.
func TestViolationCapAndTotal(t *testing.T) {
	a, _ := newTestAuditor()
	for i := 0; i < maxRetained+10; i++ {
		a.TxStarted(&phy.Frame{ID: uint64(i), Src: 1, Dst: 2, Bytes: 1}, radio.Off, true)
	}
	s := a.Summary()
	if len(s.Violations) != maxRetained {
		t.Fatalf("retained %d violations, want cap %d", len(s.Violations), maxRetained)
	}
	if s.Total != maxRetained+10 {
		t.Fatalf("Total = %d, want %d", s.Total, maxRetained+10)
	}
	if !strings.Contains(s.Violations[0].String(), "tx-awake") {
		t.Fatalf("violation string %q missing rule", s.Violations[0])
	}
}
