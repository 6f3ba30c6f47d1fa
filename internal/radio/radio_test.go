package radio

import (
	"testing"
	"time"
	"unsafe"

	"github.com/essat/essat/internal/sim"
)

// mica2Config is the paper profile's transition latencies: the 2.5 ms
// MICA2 wake-up the paper cites and a 0.5 ms turn-off.
var mica2Config = Config{TurnOnDelay: 2500 * time.Microsecond, TurnOffDelay: 500 * time.Microsecond}

func newTestRadio(t *testing.T, cfg Config) (*sim.Engine, *Radio) {
	t.Helper()
	eng := sim.New(1)
	return eng, New(eng, cfg)
}

func TestStartsIdle(t *testing.T) {
	_, r := newTestRadio(t, mica2Config)
	if r.State() != Idle {
		t.Fatalf("initial state = %v, want idle", r.State())
	}
	if !r.IsOn() || !r.CanReceive() {
		t.Fatal("idle radio should be on and able to receive")
	}
}

func TestTurnOffOn(t *testing.T) {
	eng, r := newTestRadio(t, mica2Config)
	r.TurnOff()
	if r.State() != TurningOff {
		t.Fatalf("state = %v, want turning-off", r.State())
	}
	eng.Run(time.Second)
	if r.State() != Off {
		t.Fatalf("state = %v, want off", r.State())
	}
	r.TurnOn()
	if r.State() != TurningOn {
		t.Fatalf("state = %v, want turning-on", r.State())
	}
	eng.Run(2 * time.Second)
	if r.State() != Idle {
		t.Fatalf("state = %v, want idle", r.State())
	}
}

func TestZeroDelayTransitionsAreImmediate(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	r.TurnOff()
	if r.State() != Off {
		t.Fatalf("state = %v, want off immediately", r.State())
	}
	r.TurnOn()
	if r.State() != Idle {
		t.Fatalf("state = %v, want idle immediately", r.State())
	}
}

func TestTurnOnWhileTurningOffQueues(t *testing.T) {
	eng, r := newTestRadio(t, mica2Config)
	r.TurnOff()
	r.TurnOn() // queued until Off is reached
	eng.Run(time.Second)
	if r.State() != Idle {
		t.Fatalf("state = %v, want idle after queued turn-on", r.State())
	}
}

func TestTurnOffDuringTurningOnRevertsImmediately(t *testing.T) {
	eng, r := newTestRadio(t, mica2Config)
	r.TurnOff()
	eng.Run(time.Second)
	r.TurnOn()
	r.TurnOff()
	if r.State() != Off {
		t.Fatalf("state = %v, want off", r.State())
	}
	// The canceled power-up event must not fire later.
	eng.Run(2 * time.Second)
	if r.State() != Off {
		t.Fatalf("state = %v, want off (canceled transition fired)", r.State())
	}
}

func TestTurnOffDuringTxIsDeferred(t *testing.T) {
	eng, r := newTestRadio(t, Config{TurnOffDelay: time.Millisecond})
	r.BeginTx()
	r.TurnOff()
	if r.State() != Tx {
		t.Fatalf("state = %v, want tx (turn-off deferred)", r.State())
	}
	eng.After(time.Millisecond, func() { r.EndTx() })
	eng.Run(time.Second)
	if r.State() != Off {
		t.Fatalf("state = %v, want off after deferred turn-off", r.State())
	}
}

func TestTurnOffDuringRxAborts(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	r.BeginRx()
	r.TurnOff()
	if r.State() != Off {
		t.Fatalf("state = %v, want off", r.State())
	}
	// EndRx after abort must be a harmless no-op.
	r.EndRx()
	if r.State() != Off {
		t.Fatalf("state = %v after EndRx, want off", r.State())
	}
}

func TestBeginTxWhileRxCaptures(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	r.BeginRx()
	r.BeginTx()
	if r.State() != Tx {
		t.Fatalf("state = %v, want tx", r.State())
	}
}

func TestBeginTxWhileOffPanics(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	r.TurnOff()
	defer func() {
		if recover() == nil {
			t.Error("BeginTx while off did not panic")
		}
	}()
	r.BeginTx()
}

func TestAccounting(t *testing.T) {
	eng, r := newTestRadio(t, Config{TurnOnDelay: 2 * time.Millisecond, TurnOffDelay: time.Millisecond})
	// 10ms idle, then off for ~50ms, then on again.
	eng.Schedule(10*time.Millisecond, func() { r.TurnOff() })
	eng.Schedule(61*time.Millisecond, func() { r.TurnOn() })
	eng.Run(100 * time.Millisecond)

	if got := r.TimeIn(Off); got != 50*time.Millisecond {
		t.Errorf("TimeIn(Off) = %v, want 50ms", got)
	}
	if got := r.TimeIn(TurningOff); got != time.Millisecond {
		t.Errorf("TimeIn(TurningOff) = %v, want 1ms", got)
	}
	if got := r.TimeIn(TurningOn); got != 2*time.Millisecond {
		t.Errorf("TimeIn(TurningOn) = %v, want 2ms", got)
	}
	if got := r.ActiveTime(); got != 50*time.Millisecond {
		t.Errorf("ActiveTime = %v, want 50ms", got)
	}
	if got := r.DutyCycle(); got != 0.5 {
		t.Errorf("DutyCycle = %v, want 0.5", got)
	}
}

func TestAccountingIncludesCurrentState(t *testing.T) {
	eng, r := newTestRadio(t, Config{})
	eng.Run(10 * time.Millisecond)
	if got := r.TimeIn(Idle); got != 10*time.Millisecond {
		t.Errorf("TimeIn(Idle) = %v, want 10ms (open interval)", got)
	}
}

func TestDutyCycleAtTimeZero(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	if got := r.DutyCycle(); got != 1 {
		t.Errorf("DutyCycle at t=0 = %v, want 1", got)
	}
}

// sleepLog is a test listener recording completed Off periods, the way
// a run's observer tap feeds the Fig. 8 histogram.
type sleepLog struct {
	eng       *sim.Engine
	start     time.Duration
	intervals []time.Duration
}

func (l *sleepLog) RadioStateChanged(old, new State) {
	if new == Off {
		l.start = l.eng.Now()
	} else if old == Off {
		l.intervals = append(l.intervals, l.eng.Now()-l.start)
	}
}

func TestSleepIntervalRecording(t *testing.T) {
	eng, r := newTestRadio(t, Config{})
	log := &sleepLog{eng: eng}
	r.Subscribe(log)
	eng.Schedule(10*time.Millisecond, func() { r.TurnOff() })
	eng.Schedule(40*time.Millisecond, func() { r.TurnOn() })
	eng.Schedule(50*time.Millisecond, func() { r.TurnOff() })
	eng.Schedule(52*time.Millisecond, func() { r.TurnOn() })
	eng.Run(100 * time.Millisecond)

	got := log.intervals
	if len(got) != 2 {
		t.Fatalf("recorded %d intervals, want 2: %v", len(got), got)
	}
	if got[0] != 30*time.Millisecond || got[1] != 2*time.Millisecond {
		t.Fatalf("intervals = %v, want [30ms 2ms]", got)
	}
}

// transitionLog is a test listener recording every new state.
type transitionLog []State

func (l *transitionLog) RadioStateChanged(_, s State) { *l = append(*l, s) }

func TestListeners(t *testing.T) {
	_, r := newTestRadio(t, Config{})
	var transitions transitionLog
	r.Subscribe(&transitions)
	r.BeginRx()
	r.EndRx()
	r.TurnOff()
	want := []State{Rx, Idle, Off}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions[%d] = %v, want %v", i, transitions[i], want[i])
		}
	}
}

func TestBreakEven(t *testing.T) {
	cfg := Config{TurnOnDelay: 2500 * time.Microsecond, TurnOffDelay: 500 * time.Microsecond}
	if got := cfg.BreakEven(); got != 3*time.Millisecond {
		t.Errorf("BreakEven = %v, want 3ms", got)
	}
}

func TestRedundantTurnOnOffAreNoOps(t *testing.T) {
	eng, r := newTestRadio(t, mica2Config)
	r.TurnOn() // already idle
	if r.State() != Idle {
		t.Fatalf("state = %v, want idle", r.State())
	}
	r.TurnOff()
	r.TurnOff() // already turning off
	eng.Run(time.Second)
	if r.State() != Off {
		t.Fatalf("state = %v, want off", r.State())
	}
	r.TurnOff() // already off
	if r.State() != Off {
		t.Fatalf("state = %v, want off", r.State())
	}
}

func TestTurnOnCancelsPendingOff(t *testing.T) {
	eng, r := newTestRadio(t, Config{TurnOffDelay: time.Millisecond})
	r.BeginTx()
	r.TurnOff() // deferred
	r.TurnOn()  // cancels the deferred off
	eng.After(time.Millisecond, func() { r.EndTx() })
	eng.Run(time.Second)
	if r.State() != Idle {
		t.Fatalf("state = %v, want idle (pending off should be canceled)", r.State())
	}
}

// TestRadioCarriesNoObserverState: observers reach a radio through one
// subscribed listener, so the struct every hot path loads holds no
// recorder of its own (176 B on 64-bit platforms: the state is one byte
// and packs beside the flags).
func TestRadioCarriesNoObserverState(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Radio{}); got > 176 {
		t.Fatalf("radio.Radio is %d B, want at most 176", got)
	}
}
