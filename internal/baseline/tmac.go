package baseline

import (
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// The T-MAC baseline (van Dam & Langendoen, SenSys'03 — reference [12]
// of the paper) is SYNC with an adaptive active window: all nodes wake
// at synchronized frame starts and each stays awake only until no
// activation event (reception, transmission end) has occurred for the
// timeout TA. Its frame matches the evaluation's 0.2 s schedules.
const (
	// TmacFramePeriod is the synchronized wake-up period.
	TmacFramePeriod = 200 * time.Millisecond
	// tmacTA is the activation timeout: the node sleeps once the channel
	// has been uneventful for this long. It covers roughly a worst-case
	// contention window plus one frame exchange.
	tmacTA = 15 * time.Millisecond
)

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

// NewTmacPM creates a T-MAC power manager for one node.
func NewTmacPM(eng *sim.Engine, r *radio.Radio, m *mac.MAC) *TmacPM {
	p := sim.ArenaGrab[TmacPM](eng, "baseline.tmac")
	*p = TmacPM{eng: eng, radio: r, mac: m}
	r.Subscribe(p)
	m.SetIdleSink(p)
	return p
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

// Start implements node.PowerManager.
func (p *TmacPM) Start() { p.frameStart() }

// SubmitReport implements node.ReportGate: buffer until the next frame
// start so the receiver is guaranteed awake when the exchange begins.
func (p *TmacPM) SubmitReport(dst node.NodeID, payload any, bytes int, cb mac.SendCallback) {
	p.buf = sim.ArenaAppend(p.eng, "baseline.tmac.buf", p.buf,
		gatedReport{dst: dst, payload: payload, bytes: bytes, cb: cb})
}

func (p *TmacPM) frameStart() {
	p.eng.AfterArg(TmacFramePeriod, tmacFrame, p)
	p.radio.TurnOn()
	p.lastActivity = p.eng.Now()
	for _, it := range p.buf {
		p.mac.Send(it.dst, it.payload, it.bytes, it.cb)
	}
	p.buf = p.buf[:0]
	p.scheduleCheck()
}

func (p *TmacPM) scheduleCheck() {
	at := p.lastActivity + tmacTA
	if now := p.eng.Now(); at <= now {
		return // deadline already passed; the MAC idle callback re-checks
	}
	if p.checkEv != nil {
		// Move the armed deadline in place: no cancel, no new closure.
		p.eng.RescheduleTo(p.checkEv, at)
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
	if now < p.lastActivity+tmacTA {
		p.scheduleCheck()
		return
	}
	if p.mac.Busy() {
		return // re-entered from MACIdle when the MAC drains
	}
	if p.checkEv != nil {
		p.eng.Cancel(p.checkEv)
		p.checkEv = nil
	}
	p.radio.TurnOff()
}
