// Package radio models a sensor-node radio as a power-state machine with
// energy accounting.
//
// The model follows the ESSAT paper's cost model (§4.1, after Benini et
// al.): the radio is either active (listening, receiving, transmitting),
// off, or transitioning between the two. Transitions take configurable
// times tOFF→ON and tON→OFF. When the transition power is no higher than
// the active power, the break-even time — the minimum sleep length for
// which turning the radio off saves energy without delay penalties — is
// tOFF→ON + tON→OFF.
//
// Duty cycle is the fraction of time the radio is not Off; transition
// states count as active, which is the conservative accounting the
// break-even analysis assumes.
package radio

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/sim"
)

// State is the radio power state. It is one byte, so a radio's state
// packs beside its flags and the channel's station rows stay small.
type State uint8

// Radio power states. Idle means powered and listening.
const (
	Off State = iota + 1
	TurningOn
	Idle
	Rx
	Tx
	TurningOff
)

const numStates = int(TurningOff) + 1

// String returns a short human-readable state name.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case TurningOn:
		return "turning-on"
	case Idle:
		return "idle"
	case Rx:
		return "rx"
	case Tx:
		return "tx"
	case TurningOff:
		return "turning-off"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config holds the radio's transition latencies.
type Config struct {
	// TurnOnDelay is tOFF→ON, the time to go from Off to Idle.
	TurnOnDelay time.Duration
	// TurnOffDelay is tON→OFF, the time to go from Idle to Off.
	TurnOffDelay time.Duration
}

// BreakEven returns the break-even time tBE for this radio under the
// equal-power assumption: tOFF→ON + tON→OFF.
func (c Config) BreakEven() time.Duration {
	return c.TurnOnDelay + c.TurnOffDelay
}

// StateListener observes radio state changes. Subscribers (the channel,
// the MAC, Safe Sleep, a run's observer tap) implement it on an object
// they already hold, so subscribing allocates no closure per node per
// run.
type StateListener interface {
	RadioStateChanged(old, new State)
}

// Radio is a simulated radio attached to a sim.Engine.
// It starts in the Idle (on, listening) state at time zero.
type Radio struct {
	eng *sim.Engine
	cfg Config

	lastChange time.Duration
	timeIn     [numStates]time.Duration

	// listeners is backed by inline while a node's stack subscribes at
	// most three (channel station, MAC, Safe Sleep or a power manager):
	// a state change then notifies them without leaving the radio's own
	// cache lines. A fourth subscriber (a run's observer tap) moves the
	// slice to the engine's arena.
	listeners []StateListener
	inline    [3]StateListener

	transition *sim.Event
	state      State
	pendingOff bool // TurnOff requested during Tx; applied at EndTx
	pendingOn  bool // TurnOn requested during TurningOff; applied at Off
	dead       bool // shut down and not restored: TurnOn is ignored
}

// Transition-complete dispatchers, shared by every radio: transitions
// happen thousands of times per run, so the events carry the radio as
// their argument instead of a per-radio closure.
func turnOnDone(x any) {
	r := x.(*Radio)
	r.transition = nil
	r.setState(Idle)
}

func turnOffDone(x any) {
	r := x.(*Radio)
	r.transition = nil
	r.setState(Off)
	r.afterOff()
}

// New returns a radio in the Idle state.
func New(eng *sim.Engine, cfg Config) *Radio {
	if cfg.TurnOnDelay < 0 || cfg.TurnOffDelay < 0 {
		panic("radio: negative transition delay")
	}
	r := sim.ArenaGrab[Radio](eng, "radio.radio")
	*r = Radio{eng: eng, cfg: cfg, state: Idle, lastChange: eng.Now()}
	r.listeners = r.inline[:0]
	return r
}

// Config returns the radio's configuration.
func (r *Radio) Config() Config { return r.cfg }

// State returns the current power state.
func (r *Radio) State() State { return r.state }

// IsOn reports whether the radio is powered and usable (Idle, Rx or Tx).
func (r *Radio) IsOn() bool { return r.state == Idle || r.state == Rx || r.state == Tx }

// CanReceive reports whether the radio can begin receiving a new frame.
func (r *Radio) CanReceive() bool { return r.state == Idle }

// Subscribe registers a listener for state changes. Listeners are
// invoked synchronously in registration order.
func (r *Radio) Subscribe(l StateListener) {
	r.listeners = sim.ArenaAppend(r.eng, "radio.listeners", r.listeners, l)
}

func (r *Radio) setState(s State) {
	if s == r.state {
		return
	}
	now := r.eng.Now()
	r.timeIn[r.state] += now - r.lastChange
	old := r.state
	r.state = s
	r.lastChange = now
	for _, l := range r.listeners {
		l.RadioStateChanged(old, s)
	}
}

// Shutdown forces the radio off: a dead or crashed node's hardware. Any
// in-flight transmission or reception is cut, and all future TurnOn calls
// are ignored (stale wake-ups from sleep schedulers or power managers).
// Shutdown is permanent unless Restore is called (node recovery).
func (r *Radio) Shutdown() {
	r.dead = true
	r.pendingOn = false
	r.pendingOff = false
	if r.transition != nil {
		r.eng.Cancel(r.transition)
		r.transition = nil
	}
	if r.state != Off {
		r.setState(Off)
	}
}

// Restore reverses a Shutdown: the hardware is usable again, still Off.
// The caller decides when to TurnOn. No-op on a live radio.
func (r *Radio) Restore() { r.dead = false }

// TurnOn initiates the Off→Idle transition. It is a no-op if the radio is
// already on or turning on, or if the radio was shut down. If called
// while turning off, the radio will turn back on as soon as it reaches
// Off.
func (r *Radio) TurnOn() {
	if r.dead {
		return
	}
	switch r.state {
	case Idle, Rx, Tx, TurningOn:
		r.pendingOff = false
		return
	case TurningOff:
		r.pendingOn = true
		return
	case Off:
	}
	r.pendingOn = false
	if r.cfg.TurnOnDelay == 0 {
		r.setState(Idle)
		return
	}
	r.setState(TurningOn)
	r.transition = r.eng.AfterArg(r.cfg.TurnOnDelay, turnOnDone, r)
}

// TurnOff initiates the Idle→Off transition. Called during Rx it aborts
// the reception (the channel observes the state change and drops the
// frame). Called during Tx the transition is deferred until the
// transmission completes. No-op if already off or turning off.
func (r *Radio) TurnOff() {
	switch r.state {
	case Off, TurningOff:
		r.pendingOn = false
		return
	case TurningOn:
		// Cancel the power-up and fall back to Off immediately; the
		// radio never reached an active state.
		if r.transition != nil {
			r.eng.Cancel(r.transition)
			r.transition = nil
		}
		r.setState(Off)
		r.afterOff()
		return
	case Tx:
		r.pendingOff = true
		return
	case Idle, Rx:
	}
	r.pendingOff = false
	if r.cfg.TurnOffDelay == 0 {
		r.setState(Off)
		r.afterOff()
		return
	}
	r.setState(TurningOff)
	r.transition = r.eng.AfterArg(r.cfg.TurnOffDelay, turnOffDone, r)
}

func (r *Radio) afterOff() {
	if r.pendingOn {
		r.pendingOn = false
		r.TurnOn()
	}
}

// BeginTx moves the radio into Tx. The radio must be Idle or Rx; beginning
// a transmission while receiving aborts the reception (capture by the
// transmitter's own frame). Panics if the radio is off: callers must
// ensure the radio is powered, as a real MAC driver would.
func (r *Radio) BeginTx() {
	if r.state != Idle && r.state != Rx {
		panic(fmt.Sprintf("radio: BeginTx in state %v", r.state))
	}
	r.setState(Tx)
}

// EndTx completes a transmission, returning to Idle, then applies a
// deferred TurnOff if one was requested mid-transmission.
func (r *Radio) EndTx() {
	if r.state != Tx {
		panic(fmt.Sprintf("radio: EndTx in state %v", r.state))
	}
	r.setState(Idle)
	if r.pendingOff {
		r.pendingOff = false
		r.TurnOff()
	}
}

// BeginRx moves the radio from Idle into Rx.
func (r *Radio) BeginRx() {
	if r.state != Idle {
		panic(fmt.Sprintf("radio: BeginRx in state %v", r.state))
	}
	r.setState(Rx)
}

// EndRx completes a reception, returning to Idle. It is a no-op if the
// radio already left Rx (e.g. it was turned off mid-frame or captured by
// a transmission): the channel calls EndRx unconditionally at frame end.
func (r *Radio) EndRx() {
	if r.state != Rx {
		return
	}
	r.setState(Idle)
}

// TimeIn returns the cumulative time spent in state s up to now.
func (r *Radio) TimeIn(s State) time.Duration {
	d := r.timeIn[s]
	if r.state == s {
		d += r.eng.Now() - r.lastChange
	}
	return d
}

// ActiveTime returns the cumulative time the radio was not Off.
func (r *Radio) ActiveTime() time.Duration {
	return r.eng.Now() - r.TimeIn(Off)
}

// DutyCycle returns the fraction of elapsed time the radio was active
// (not Off), in [0,1]. It returns 1 if no time has elapsed.
func (r *Radio) DutyCycle() float64 {
	total := r.eng.Now()
	if total <= 0 {
		return 1
	}
	return float64(r.ActiveTime()) / float64(total)
}
