package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

func newSS(t *testing.T, radioCfg radio.Config, opts SafeSleepOptions) (*sim.Engine, *radio.Radio, *SafeSleep) {
	t.Helper()
	eng := sim.New(1)
	r := radio.New(eng, radioCfg)
	return eng, r, NewSafeSleep(eng, r, opts)
}

func TestSleepsUntilNextExpectedEvent(t *testing.T) {
	cfg := radio.Config{TurnOnDelay: 2 * time.Millisecond, TurnOffDelay: time.Millisecond}
	eng, r, ss := newSS(t, cfg, SafeSleepOptions{BreakEven: -1})

	ss.UpdateNextSend(1, 100*time.Millisecond)
	if r.State() != radio.TurningOff {
		t.Fatalf("radio state = %v, want turning-off after a distant snext", r.State())
	}
	// Must be awake (idle) again exactly at the expected time.
	eng.Run(100 * time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v at twakeup, want idle", r.State())
	}
	// Off period should have been 100ms - 1ms(off) - 2ms(on) = 97ms.
	if got := r.TimeIn(radio.Off); got != 97*time.Millisecond {
		t.Fatalf("TimeIn(Off) = %v, want 97ms", got)
	}
}

func TestShortGapSuppressed(t *testing.T) {
	cfg := radio.Config{TurnOnDelay: 2 * time.Millisecond, TurnOffDelay: time.Millisecond}
	eng, r, ss := newSS(t, cfg, SafeSleepOptions{BreakEven: -1})

	// Free for 2ms < tBE (3ms): stay awake.
	ss.UpdateNextSend(1, eng.Now()+2*time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v, want idle (gap below break-even)", r.State())
	}
	if ss.Stats().Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", ss.Stats().Suppressed)
	}
	if ss.Stats().Sleeps != 0 {
		t.Fatalf("Sleeps = %d, want 0", ss.Stats().Sleeps)
	}
}

func TestBusyWhenExpectedTimeInPast(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	eng.Run(50 * time.Millisecond)
	ss.UpdateNextReceive(1, 7, 10*time.Millisecond) // already past
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v, want idle (busy: overdue reception)", r.State())
	}
	// Even far-future snext must not allow sleep while a reception is due.
	ss.UpdateNextSend(1, time.Second)
	if r.State() != radio.Idle {
		t.Fatal("node slept despite an overdue expected reception")
	}
}

func TestEarliestOfSendAndReceiveWins(t *testing.T) {
	cfg := radio.Config{TurnOnDelay: 2 * time.Millisecond, TurnOffDelay: time.Millisecond}
	eng, r, ss := newSS(t, cfg, SafeSleepOptions{BreakEven: -1})
	ss.UpdateNextSend(1, 500*time.Millisecond)
	ss.UpdateNextReceive(1, 3, 100*time.Millisecond)
	eng.Run(98 * time.Millisecond)
	if r.State() != radio.Idle && r.State() != radio.TurningOn {
		t.Fatalf("radio state = %v at twakeup-2ms, want waking", r.State())
	}
	eng.Run(100 * time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v at earliest event, want idle", r.State())
	}
}

// busyFunc adapts a func to BusyReporter.
type busyFunc func() bool

func (f busyFunc) Busy() bool { return f() }

func TestMACBusyBlocksSleep(t *testing.T) {
	busy := true
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{
		MACBusy: busyFunc(func() bool { return busy }),
	})
	ss.UpdateNextSend(1, 500*time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatal("node slept while MAC busy")
	}
	busy = false
	ss.CheckState() // the MAC idle callback path
	if r.State() == radio.Idle {
		t.Fatal("node still awake after MAC drained")
	}
	_ = eng
}

func TestDisabledNeverSleeps(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{Disabled: true})
	ss.UpdateNextSend(1, time.Second)
	eng.Run(500 * time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("disabled SS changed radio state to %v", r.State())
	}
	if !ss.Disabled() {
		t.Fatal("Disabled() = false")
	}
}

func TestSetupSlotKeepsRadioOn(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	ss.HoldAwake(100 * time.Millisecond)
	ss.UpdateNextSend(1, time.Second)
	if r.State() != radio.Idle {
		t.Fatal("node slept inside the setup slot")
	}
	eng.Run(150 * time.Millisecond)
	ss.CheckState()
	if r.State() == radio.Idle {
		t.Fatal("node failed to sleep after the setup slot ended")
	}
}

func TestRemoveChildUnblocksSleep(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	eng.Run(50 * time.Millisecond)
	ss.UpdateNextReceive(1, 5, 10*time.Millisecond) // overdue → busy
	ss.UpdateNextSend(1, time.Second)
	if r.State() != radio.Idle {
		t.Fatal("precondition: node should be awake")
	}
	// §4.3: removing the failed child's stale expected time lets the node
	// sleep again.
	ss.RemoveChild(1, 5)
	if r.State() == radio.Idle {
		t.Fatal("node still awake after stale child removal")
	}
}

func TestRemoveQueryClearsAllState(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	eng.Run(50 * time.Millisecond)
	ss.UpdateNextReceive(1, 5, 10*time.Millisecond)
	ss.UpdateNextReceive(1, 6, 20*time.Millisecond)
	ss.UpdateNextSend(1, 30*time.Millisecond)
	ss.UpdateNextSend(2, time.Second)
	ss.RemoveQuery(1)
	// Only query 2 remains, with a future snext: the node can sleep.
	if r.State() == radio.Idle {
		t.Fatal("node awake despite only a distant expectation remaining")
	}
}

func TestWakeRescheduledWhenEarlierEventAppears(t *testing.T) {
	cfg := radio.Config{}
	eng, r, ss := newSS(t, cfg, SafeSleepOptions{})
	ss.UpdateNextSend(1, time.Second)
	if r.State() != radio.Off {
		t.Fatalf("radio state = %v, want off", r.State())
	}
	// A new earlier expectation (e.g. a re-parented child) must pull the
	// wake-up forward.
	ss.UpdateNextReceive(1, 9, 200*time.Millisecond)
	eng.Run(200 * time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v at the earlier event, want idle", r.State())
	}
	if got := r.TimeIn(radio.Off); got != 200*time.Millisecond {
		t.Fatalf("TimeIn(Off) = %v, want exactly 200ms", got)
	}
}

func TestNoExpectationsNoAction(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	ss.CheckState()
	eng.Run(100 * time.Millisecond)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v with no expectations, want idle", r.State())
	}
}

func TestReSleepAfterReceptionEnds(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	// Expect a reception at 100ms: sleep until then.
	ss.UpdateNextReceive(1, 3, 100*time.Millisecond)
	if r.State() != radio.Off {
		t.Fatal("precondition: sleeping until the expected reception")
	}
	// The frame arrives at 100ms and lasts 2ms. Mid-reception, the shaper
	// advances rnext into the future (as it does from ReportReceived);
	// CheckState must defer while the radio is in Rx, then the Rx→Idle
	// transition re-evaluates and puts the node back to sleep.
	eng.Schedule(100*time.Millisecond, func() { r.BeginRx() })
	eng.Schedule(101*time.Millisecond, func() { ss.UpdateNextReceive(1, 3, time.Second) })
	eng.Schedule(102*time.Millisecond, func() { r.EndRx() })
	eng.Run(103 * time.Millisecond)
	if r.State() == radio.Idle {
		t.Fatal("node stayed awake after the reception completed")
	}
	eng.Run(time.Second)
	if r.State() != radio.Idle {
		t.Fatalf("radio state = %v at the next expected event, want idle", r.State())
	}
}

// sleepLog is a test listener recording completed Off periods, as a
// run's radio listener does for the Fig. 8 histogram.
type sleepLog struct {
	eng       *sim.Engine
	start     time.Duration
	intervals []time.Duration
}

func (l *sleepLog) RadioStateChanged(old, new radio.State) {
	if new == radio.Off {
		l.start = l.eng.Now()
	} else if old == radio.Off {
		l.intervals = append(l.intervals, l.eng.Now()-l.start)
	}
}

func TestBreakEvenZeroSleepsThroughTinyGaps(t *testing.T) {
	eng := sim.New(1)
	r := radio.New(eng, radio.Config{})
	// Subscribed before Safe Sleep, where a run installs its listener.
	log := &sleepLog{eng: eng}
	r.Subscribe(log)
	ss := NewSafeSleep(eng, r, SafeSleepOptions{BreakEven: 0})
	ss.UpdateNextSend(1, eng.Now()+time.Millisecond)
	eng.Run(time.Millisecond)
	if got := len(log.intervals); got != 1 {
		t.Fatalf("recorded %d sleep intervals, want 1 (TBE=0 sleeps any gap)", got)
	}
	if log.intervals[0] != time.Millisecond {
		t.Fatalf("sleep interval = %v, want 1ms", log.intervals[0])
	}
}

// TestSleepLogSubscribedBeforeSafeSleep: an unexpected wake-up (here a
// bare TurnOn, as node recovery issues) finds nothing due, so Safe Sleep
// turns the radio off again inside the Off→Idle notification. A sleep
// log subscribed before Safe Sleep, where a run subscribes its radio
// listener, records the sleep that the wake-up ended. One subscribed
// after sees the nested sleep begin first and records zero instead.
func TestSleepLogSubscribedBeforeSafeSleep(t *testing.T) {
	eng := sim.New(1)
	r := radio.New(eng, radio.Config{})
	before := &sleepLog{eng: eng}
	r.Subscribe(before)
	ss := NewSafeSleep(eng, r, SafeSleepOptions{BreakEven: 0})
	after := &sleepLog{eng: eng}
	r.Subscribe(after)
	ss.UpdateNextSend(1, 100*time.Millisecond)
	eng.Schedule(30*time.Millisecond, r.TurnOn)
	eng.Run(50 * time.Millisecond)
	if r.State() != radio.Off {
		t.Fatalf("radio state = %v, want off: Safe Sleep should re-sleep", r.State())
	}
	if len(before.intervals) != 1 || before.intervals[0] != 30*time.Millisecond {
		t.Errorf("log before Safe Sleep = %v, want [30ms]", before.intervals)
	}
	if len(after.intervals) != 1 || after.intervals[0] != 0 {
		t.Errorf("log after Safe Sleep = %v, want [0s]", after.intervals)
	}
}

// TestDefaultsDeriveFromRadio: tBE defaults to the radio's break-even
// time, and a sleeping radio is woken tOFF→ON before twakeup.
func TestDefaultsDeriveFromRadio(t *testing.T) {
	paper, _ := radio.LookupProfile(radio.Paper)
	cfg := paper.Config()
	_, _, ss := newSS(t, cfg, SafeSleepOptions{BreakEven: -1})
	if ss.breakEven != cfg.BreakEven() {
		t.Fatalf("BreakEven = %v, want %v", ss.breakEven, cfg.BreakEven())
	}
	const twakeup = 100 * time.Millisecond
	ss.UpdateNextSend(1, twakeup)
	if ss.wakeEv == nil {
		t.Fatal("no wake-up armed for a distant snext")
	}
	if got, want := ss.wakeEv.At(), twakeup-cfg.TurnOnDelay; got != want {
		t.Fatalf("wake-up at %v, want twakeup − tOFF→ON = %v", got, want)
	}
}

// TestSleepAccountingMatchesSchedule drives a periodic send/receive
// pattern and checks the radio sleeps through every free window.
func TestSleepAccountingMatchesSchedule(t *testing.T) {
	eng, r, ss := newSS(t, radio.Config{}, SafeSleepOptions{})
	period := 100 * time.Millisecond
	const intervals = 10
	var q query.ID = 1
	// Simulate: at each period boundary the node "receives" (instant) and
	// re-arms for the next period.
	var arm func(k int)
	arm = func(k int) {
		if k >= intervals {
			return
		}
		at := time.Duration(k) * period
		ss.UpdateNextReceive(q, 2, at)
		eng.Schedule(at, func() {
			ss.UpdateNextReceive(q, 2, at+period)
			arm(k + 1)
		})
	}
	arm(1)
	eng.Run(time.Duration(intervals) * period)
	// With zero-cost transitions, the node should be off essentially the
	// whole time (awake only at the instant boundaries).
	duty := r.DutyCycle()
	if duty > 0.01 {
		t.Fatalf("duty cycle = %.3f, want ~0 with instantaneous events", duty)
	}
}

// scanEarliest is the brute-force reference for SafeSleep.earliest: a
// full scan of both expectation tables.
func scanEarliest(ss *SafeSleep) (time.Duration, bool) {
	var low time.Duration
	found := false
	for _, e := range ss.nextSend {
		if !found || e.t < low {
			low, found = e.t, true
		}
	}
	for _, e := range ss.nextRecv {
		if !found || e.t < low {
			low, found = e.t, true
		}
	}
	return low, found
}

// TestEarliestCacheMatchesScan drives seeded random table updates and
// removals and checks, after every operation, that the cached earliest
// time equals a full scan. Small key and time ranges make ties and hits
// on the minimum row common; the test also requires that every case the
// cache distinguishes actually occurred.
func TestEarliestCacheMatchesScan(t *testing.T) {
	const (
		lowerMin = iota
		raiseMin
		resetMin
		removeMin
		emptied
		numCases
	)
	names := [numCases]string{"lower min", "raise min", "re-set min", "remove min", "empty both tables"}
	var seen [numCases]int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New(1)
		// Disabled keeps the radio out of it: only the tables matter.
		ss := NewSafeSleep(eng, radio.New(eng, radio.Config{}), SafeSleepOptions{Disabled: true})
		for op := 0; op < 3000; op++ {
			q := query.ID(rng.Intn(3) + 1)
			c := query.NodeID(rng.Intn(4) + 1)
			at := time.Duration(rng.Intn(10)) * time.Millisecond
			low, had := scanEarliest(ss)
			// old is the row's time before the operation, when it exists.
			old, exists := time.Duration(0), false
			switch k := rng.Intn(20); {
			case k < 8:
				if i := ss.findSend(q); i >= 0 {
					old, exists = ss.nextSend[i].t, true
				}
				ss.UpdateNextSend(q, at)
			case k < 16:
				if i := ss.findRecv(recvKey{q, c}); i >= 0 {
					old, exists = ss.nextRecv[i].t, true
				}
				ss.UpdateNextReceive(q, c, at)
			case k < 19:
				if i := ss.findRecv(recvKey{q, c}); i >= 0 && ss.nextRecv[i].t == low {
					seen[removeMin]++
				}
				ss.RemoveChild(q, c)
			default:
				for _, e := range ss.nextSend {
					if e.q == q && e.t == low {
						seen[removeMin]++
					}
				}
				ss.RemoveQuery(q)
			}
			if exists && old == low {
				switch {
				case at < low:
					seen[lowerMin]++
				case at > low:
					seen[raiseMin]++
				default:
					seen[resetMin]++
				}
			}
			want, wantOK := scanEarliest(ss)
			if had && !wantOK {
				seen[emptied]++
			}
			got, gotOK := ss.earliest()
			if got != want && wantOK || gotOK != wantOK {
				t.Fatalf("seed %d op %d: earliest() = %v,%v, full scan %v,%v",
					seed, op, got, gotOK, want, wantOK)
			}
		}
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("case %q never occurred", names[i])
		}
	}
}
