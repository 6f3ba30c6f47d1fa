package radio

import "time"

// PowerProfile gives the radio's power draw per state, in watts. Duty
// cycle is a hardware-independent proxy; the profile turns state
// residency into joules for lifetime estimates.
type PowerProfile struct {
	// Sleep is the draw while Off.
	Sleep float64
	// Idle is the draw while listening with no frame in the air.
	Idle float64
	// Rx is the draw while receiving.
	Rx float64
	// Tx is the draw while transmitting.
	Tx float64
	// Transition is the draw while turning on or off.
	Transition float64
}

// Mica2Power returns a CC1000-class profile at 3 V: ~10 mA listening and
// receiving, ~27 mA transmitting at full power, <2 µA in sleep, and
// transition draw comparable to listening.
func Mica2Power() PowerProfile {
	return PowerProfile{
		Sleep:      6e-6,
		Idle:       0.030,
		Rx:         0.030,
		Tx:         0.081,
		Transition: 0.030,
	}
}

// Energy returns the joules consumed so far under profile p, from the
// radio's per-state residency times.
func (r *Radio) Energy(p PowerProfile) float64 {
	sec := func(d time.Duration) float64 { return d.Seconds() }
	return sec(r.TimeIn(Off))*p.Sleep +
		sec(r.TimeIn(Idle))*p.Idle +
		sec(r.TimeIn(Rx))*p.Rx +
		sec(r.TimeIn(Tx))*p.Tx +
		(sec(r.TimeIn(TurningOn))+sec(r.TimeIn(TurningOff)))*p.Transition
}
