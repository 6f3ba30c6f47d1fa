package baseline

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// TmacConfig parameterizes the T-MAC baseline (van Dam & Langendoen,
// SenSys'03 — reference [12] of the paper). T-MAC is SYNC with an
// adaptive active window: all nodes wake at synchronized frame starts
// and each stays awake only until no activation event (reception,
// transmission end) has occurred for the timeout TA.
type TmacConfig struct {
	// FramePeriod is the synchronized wake-up period.
	FramePeriod time.Duration
	// TA is the activation timeout: the node sleeps once the channel has
	// been uneventful for this long. Must cover a contention round plus a
	// frame exchange.
	TA time.Duration
}

// DefaultTmacConfig matches the evaluation's 0.2 s frame with a TA
// covering roughly a worst-case contention window plus one exchange.
func DefaultTmacConfig() TmacConfig {
	return TmacConfig{FramePeriod: 200 * time.Millisecond, TA: 15 * time.Millisecond}
}

// TmacPM implements the T-MAC baseline at one node. Reports submitted
// mid-frame are buffered and released at the next synchronized frame
// start, when every node is briefly awake; activity then keeps the
// participants awake (each reception or transmission resets TA) while
// idle nodes drop out early. T-MAC adapts to load like PSM but without
// announcement traffic — and, as the paper argues for all MAC-level
// schemes, without knowing *when* the application will need the radio,
// which is exactly what ESSAT exploits.
type TmacPM struct {
	eng   *sim.Engine
	radio *radio.Radio
	mac   *mac.MAC
	cfg   TmacConfig

	buf          []gatedReport
	lastActivity time.Duration
	checkEv      *sim.Event
}

var _ node.PowerManager = (*TmacPM)(nil)
var _ node.ReportGate = (*TmacPM)(nil)
var _ mac.IdleSink = (*TmacPM)(nil)
var _ radio.StateListener = (*TmacPM)(nil)

// T-MAC's timer dispatchers: the events carry the TmacPM, so a frame
// allocates no closure.
func tmacFrame(x any) { x.(*TmacPM).frameStart() }
func tmacCheck(x any) {
	p := x.(*TmacPM)
	p.checkEv = nil
	p.maybeSleep()
}

// Validate reports whether the configuration is runnable. It is the
// check NewTmacPM enforces, exposed so config errors become build-time
// errors instead of panics.
func (c TmacConfig) Validate() error {
	if c.FramePeriod <= 0 || c.TA <= 0 || c.TA > c.FramePeriod {
		return fmt.Errorf("baseline: T-MAC needs 0 < TA <= FramePeriod, got TA %v, frame %v", c.TA, c.FramePeriod)
	}
	return nil
}

// NewTmacPM creates a T-MAC power manager for one node. An invalid
// config is an error, not a panic: baselines are reachable from
// declarative specs, and a malformed spec must never take down the
// process hosting the run.
func NewTmacPM(eng *sim.Engine, r *radio.Radio, m *mac.MAC, cfg TmacConfig) (*TmacPM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := sim.ArenaGrab[TmacPM](eng, "baseline.tmac")
	*p = TmacPM{eng: eng, radio: r, mac: m, cfg: cfg}
	r.Subscribe(p)
	m.SetIdleSink(p)
	return p, nil
}

// RadioStateChanged implements radio.StateListener: receptions and
// transmission completions are activation events.
func (p *TmacPM) RadioStateChanged(old, new radio.State) {
	if (old == radio.Rx || old == radio.Tx) && new == radio.Idle {
		p.lastActivity = p.eng.Now()
	}
}

// MACIdle implements mac.IdleSink: the drained MAC may let the node sleep.
func (p *TmacPM) MACIdle() { p.maybeSleep() }

// Name implements node.PowerManager.
func (p *TmacPM) Name() string { return "TMAC" }

// Start implements node.PowerManager.
func (p *TmacPM) Start() { p.frameStart() }

// SubmitReport implements node.ReportGate: buffer until the next frame
// start so the receiver is guaranteed awake when the exchange begins.
func (p *TmacPM) SubmitReport(dst node.NodeID, payload any, bytes int, cb mac.SendCallback) {
	p.buf = sim.ArenaAppend(p.eng, "baseline.tmac.buf", p.buf,
		gatedReport{dst: dst, payload: payload, bytes: bytes, cb: cb})
}

func (p *TmacPM) frameStart() {
	p.eng.AfterArg(p.cfg.FramePeriod, tmacFrame, p)
	p.radio.TurnOn()
	p.lastActivity = p.eng.Now()
	for _, it := range p.buf {
		p.mac.Send(it.dst, it.payload, it.bytes, it.cb)
	}
	p.buf = p.buf[:0]
	p.scheduleCheck()
}

func (p *TmacPM) scheduleCheck() {
	at := p.lastActivity + p.cfg.TA
	if now := p.eng.Now(); at <= now {
		return // deadline already passed; the MAC idle callback re-checks
	}
	if p.checkEv != nil {
		// Move the armed deadline in place: no cancel, no new closure.
		p.checkEv.RescheduleTo(at)
		return
	}
	p.checkEv = p.eng.ScheduleArg(at, tmacCheck, p)
}

// maybeSleep powers down once TA expired with no activity and no pending
// MAC work. While the TA window is open it re-arms the deadline check;
// while the MAC is busy it waits for the MAC-idle callback instead (the
// transmission's end will also refresh lastActivity).
func (p *TmacPM) maybeSleep() {
	if !p.radio.IsOn() {
		return
	}
	now := p.eng.Now()
	if now < p.lastActivity+p.cfg.TA {
		p.scheduleCheck()
		return
	}
	if p.mac.Busy() {
		return // re-entered from MACIdle when the MAC drains
	}
	if p.checkEv != nil {
		p.checkEv.Cancel()
		p.checkEv = nil
	}
	p.radio.TurnOff()
}
