package radio

import (
	"math"
	"testing"
	"time"

	"github.com/essat/essat/internal/sim"
)

func TestEnergyAccounting(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	p := PowerProfile{Sleep: 0.001, Idle: 0.030, Rx: 0.040, Tx: 0.080, Transition: 0.030}

	// 1s idle, 1s rx, 1s tx, 7s off.
	eng.Schedule(1*time.Second, func() { r.BeginRx() })
	eng.Schedule(2*time.Second, func() { r.EndRx(); r.BeginTx() })
	eng.Schedule(3*time.Second, func() { r.EndTx(); r.TurnOff() })
	eng.Run(10 * time.Second)

	want := 1*0.030 + 1*0.040 + 1*0.080 + 7*0.001
	if got := r.Energy(p); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Energy = %v J, want %v J", got, want)
	}
	if got := r.AveragePower(p); math.Abs(got-want/10) > 1e-12 {
		t.Fatalf("AveragePower = %v W, want %v W", got, want/10)
	}
}

func TestEnergyIncludesTransitions(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{TurnOnDelay: time.Second, TurnOffDelay: time.Second})
	p := PowerProfile{Transition: 0.5, Sleep: 0, Idle: 0}
	eng.Schedule(0, func() { r.TurnOff() })
	eng.Schedule(5*time.Second, func() { r.TurnOn() })
	eng.Run(10 * time.Second)
	// 1s turning off + 1s turning on at 0.5W = 1J.
	if got := r.Energy(p); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Energy = %v J, want 1 J", got)
	}
}

func TestMica2PowerOrdering(t *testing.T) {
	p := Mica2Power()
	if !(p.Sleep < p.Idle && p.Idle <= p.Rx && p.Rx < p.Tx) {
		t.Fatalf("implausible power ordering: %+v", p)
	}
}

func TestAveragePowerAtTimeZero(t *testing.T) {
	eng := sim.New(1)
	r := New(eng, Config{})
	p := Mica2Power()
	if got := r.AveragePower(p); got != p.Idle {
		t.Fatalf("AveragePower at t=0 = %v, want idle draw", got)
	}
}
