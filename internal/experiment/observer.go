package experiment

import (
	"time"

	"github.com/essat/essat/internal/check"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/stats"
	"github.com/essat/essat/internal/trace"
)

// observer is a run's one observation point. It owns the root recorder
// that feeds Result, the configured metric sinks, the tracer, the
// invariant auditor and the Fig. 8 sleep log. It is the root agent's
// query.Sink, it hosts each member's radio tap, and Collect reads node
// summaries and sink records through it. An observer that is off is nil
// or empty, so each hook it would take costs one check. All of them are
// pure: a run is byte-identical with any selection.
//
// Hook order is fixed, and this is the one place it is stated:
//   - root hooks (a report arrives, an interval closes): the auditor,
//     the root recorder, then the sinks in configuration order;
//   - radio transitions: the tracer, the auditor, the radio-observing
//     sinks, then the sleep log;
//   - at collect: each live member's summary to the sinks in node-ID
//     order, then the sinks' records in configuration order.
type observer struct {
	eng     *sim.Engine
	root    *stats.RootSink
	sinks   []stats.Sink
	radio   []stats.RadioObserver // the sinks that read radio transitions
	tracer  *trace.Tracer
	auditor *check.Auditor
	sleeps  bool // keep the Fig. 8 sleep log

	// taps holds each member's radio tap by node ID; nil when nothing
	// reads radio transitions.
	taps []*nodeTap
}

var _ query.Sink = (*observer)(nil)

// observers builds the run's observer: the root recorder, the checked
// sinks in configuration order, the tracer and the auditor.
func (b *builder) observers() {
	sc, o := &b.Scenario, &b.obs
	*o = observer{
		eng:    b.Eng,
		root:   stats.NewRootSink(b.Eng, sc.Queries, sc.MeasureFrom, sc.Duration),
		sinks:  b.sinks,
		sleeps: sc.RecordSleepIntervals,
	}
	for _, s := range o.sinks {
		if ro, ok := s.(stats.RadioObserver); ok {
			o.radio = append(o.radio, ro)
		}
	}
	if sc.TraceCapacity > 0 {
		o.tracer = trace.New(sc.TraceCapacity, b.Eng.Now)
	}
	if sc.Audit {
		o.auditor = check.New(b.Eng, len(b.members))
		b.Eng.SetObserver(o.auditor)
		b.Channel.SetObserver(o.auditor)
		for _, q := range sc.Queries {
			o.auditor.RegisterQuery(q)
		}
	}
	if o.tracer != nil || o.auditor != nil || len(o.radio) > 0 || o.sleeps {
		o.taps = sim.ArenaSlice[*nodeTap](b.Eng, "experiment.taps", b.Topo.NumNodes())
	}
}

// tap subscribes member id's radio tap, when anything reads radio
// transitions. stacks calls it after the channel station and the MAC
// and before the protocol stack. The position matters to the sleep log:
// Safe Sleep may turn the radio off again inside an Off→Idle
// notification, and a tap subscribed after it would see that nested
// sleep begin before the Off→Idle that ended the previous one.
func (o *observer) tap(id node.NodeID, r *radio.Radio, profile radio.PowerProfile) {
	if o.taps == nil {
		return
	}
	t := sim.ArenaGrab[nodeTap](o.eng, "experiment.nodeTap")
	*t = nodeTap{o: o, id: id}
	if o.auditor != nil {
		t.audit = o.auditor.WatchRadio(id, r, profile)
	}
	r.Subscribe(t)
	o.taps[id] = t
}

// watchStack gives the auditor a built member's MAC and Safe Sleep
// decisions.
func (o *observer) watchStack(n *node.Node) {
	if o.auditor == nil {
		return
	}
	n.MAC.SetObserver(o.auditor)
	if n.SS != nil {
		n.SS.SetObserver(n.ID(), o.auditor)
	}
}

// ReportArrived implements query.Sink.
func (o *observer) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	if o.auditor != nil {
		o.auditor.ReportArrived(q, k, latency, coverage)
	}
	o.root.ReportArrived(q, k, latency, coverage)
	for _, s := range o.sinks {
		s.ReportArrived(q, k, latency, coverage)
	}
}

// IntervalClosed implements query.Sink.
func (o *observer) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	if o.auditor != nil {
		o.auditor.IntervalClosed(q, k, latency, coverage)
	}
	o.root.IntervalClosed(q, k, latency, coverage)
	for _, s := range o.sinks {
		s.IntervalClosed(q, k, latency, coverage)
	}
}

// nodeDone hands one live member's end-of-run summary to the sinks.
func (o *observer) nodeDone(n stats.NodeSummary) {
	for _, s := range o.sinks {
		s.NodeDone(n)
	}
}

// nodeTap is a member radio's one run-level listener.
type nodeTap struct {
	o     *observer
	id    node.NodeID
	audit int // the auditor's handle for this radio

	sleepStart time.Duration
	sleeps     []time.Duration // completed Off periods, when recorded
}

// RadioStateChanged implements radio.StateListener.
func (t *nodeTap) RadioStateChanged(old, new radio.State) {
	o := t.o
	if o.tracer != nil {
		switch {
		case new == radio.Off:
			o.tracer.Record(t.id, trace.RadioSleep, "")
		case new == radio.Idle && (old == radio.TurningOn || old == radio.Off):
			o.tracer.Record(t.id, trace.RadioWake, "")
		}
	}
	if o.auditor != nil {
		o.auditor.RadioChanged(t.audit, old, new)
	}
	for _, ro := range o.radio {
		ro.RadioChanged(int(t.id), old, new, o.eng.Now())
	}
	if o.sleeps {
		if new == radio.Off {
			t.sleepStart = o.eng.Now()
		} else if old == radio.Off {
			t.sleeps = append(t.sleeps, o.eng.Now()-t.sleepStart)
		}
	}
}
