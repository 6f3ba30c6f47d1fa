package experiment

import (
	"time"

	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/trace"
)

// radioTap is a member radio's one run-level listener. Every observer
// that reads radio transitions is served from it, in a fixed order: the
// tracer's sleep/wake record, the auditor's digest and time/energy
// checks, the radio-observing sinks, then the Fig. 8 sleep log. A new
// observer joins here instead of subscribing to the radio.
//
// stacks subscribes it after the channel station and the MAC and before
// the protocol stack. The position matters to the sleep log: Safe Sleep
// may turn the radio off again inside an Off→Idle notification, and a
// listener subscribed after it would see that nested sleep begin before
// the Off→Idle that ended the previous one.
type radioTap struct {
	s     *Sim
	id    node.NodeID
	audit int // the auditor's handle for this radio

	sleepStart time.Duration
	sleeps     []time.Duration // completed Off periods, when recorded
}

// tap subscribes a new radioTap to member id's radio.
func (b *builder) tap(id node.NodeID, r *radio.Radio) *radioTap {
	t := sim.ArenaGrab[radioTap](b.Eng, "experiment.radioTap")
	*t = radioTap{s: b.Sim, id: id}
	if b.auditor != nil {
		t.audit = b.auditor.WatchRadio(id, r, b.profile)
	}
	r.Subscribe(t)
	return t
}

// RadioStateChanged implements radio.StateListener.
func (t *radioTap) RadioStateChanged(old, new radio.State) {
	s := t.s
	if s.tracer != nil {
		switch {
		case new == radio.Off:
			s.tracer.Record(t.id, trace.RadioSleep, "")
		case new == radio.Idle && (old == radio.TurningOn || old == radio.Off):
			s.tracer.Record(t.id, trace.RadioWake, "")
		}
	}
	if s.auditor != nil {
		s.auditor.RadioChanged(t.audit, old, new)
	}
	if s.fan.WantsRadio() {
		s.fan.RadioChanged(int(t.id), old, new, s.Eng.Now())
	}
	if s.Scenario.RecordSleepIntervals {
		if new == radio.Off {
			t.sleepStart = s.Eng.Now()
		} else if old == radio.Off {
			t.sleeps = append(t.sleeps, s.Eng.Now()-t.sleepStart)
		}
	}
}
