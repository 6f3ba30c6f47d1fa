package stats

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/registry"
)

// Registered sink names, in rank order.
const (
	// SinkTimeseries emits per-node radio awake-fraction series.
	SinkTimeseries = "timeseries"
	// SinkEnergy emits an energy histogram plus lifetime scalars.
	SinkEnergy = "energy"
	// SinkJSONL captures the raw observation stream for line-oriented
	// export.
	SinkJSONL = "jsonl"
)

// Sink is a streaming metric observer. Sinks subscribe to the same
// hook bus the invariant auditor uses — report arrivals and interval
// closes at the root, radio state transitions (via the optional
// RadioObserver interface), and per-node energy accounting at collect
// time — and must be pure observers: they may not influence the
// simulation, so trace digests are identical with any sink set.
//
// Hook order is deterministic: ReportArrived/IntervalClosed follow the
// engine's event order, NodeDone is called once per live member in
// node-ID order, and Finish runs last, once.
type Sink interface {
	// Name returns the sink's registered name.
	Name() string
	// ReportArrived observes one report reaching the root.
	ReportArrived(q query.ID, interval int, latency time.Duration, coverage int)
	// IntervalClosed observes the root closing a query interval.
	IntervalClosed(q query.ID, interval int, latency time.Duration, coverage int)
	// NodeDone observes one node's end-of-run summary.
	NodeDone(n NodeSummary)
	// Finish produces the sink's record, or nil for sinks that feed
	// results through another channel (the root recorder).
	Finish(m RunMeta) *Record
}

// RadioObserver is implemented by sinks that want per-transition radio
// state changes. Radios are only subscribed when at least one
// configured sink implements it, so default runs pay nothing.
//
// Calls arrive in time order. Per-node state fits a slice indexed by
// node ID, sized by SinkConfig.Nodes.
type RadioObserver interface {
	RadioChanged(node int, from, to radio.State, at time.Duration)
}

// NodeSummary is one node's end-of-run accounting, as computed by
// Sim.Collect over the measurement window.
type NodeSummary struct {
	Node    int
	Rank    int
	Duty    float64
	EnergyJ float64
}

// RunMeta identifies the finished run a record describes.
type RunMeta struct {
	Protocol    string
	Seed        int64
	Duration    time.Duration
	MeasureFrom time.Duration
	TreeSize    int
}

// SinkConfig is everything a builder needs to construct a sink for one
// run. Params carries the sink-specific knobs from the spec's results
// block; builders must reject unknown keys and invalid values so typos
// fail the spec compile, not the run.
type SinkConfig struct {
	Duration    time.Duration
	MeasureFrom time.Duration
	// Nodes is the deployment's node count (node IDs are 0..Nodes-1),
	// derived by the run builder from the topology.
	Nodes  int
	Params map[string]float64
}

// SinkBuilder constructs a sink for one run.
type SinkBuilder func(cfg SinkConfig) (Sink, error)

var sinks = registry.New[string, SinkBuilder]("metric sink")

// RegisterSink registers a sink builder under name. Rank orders listing
// output; registration panics on duplicates (miswired init).
func RegisterSink(name string, rank int, b SinkBuilder) { sinks.Register(name, rank, b) }

// LookupSink returns the builder registered under name.
func LookupSink(name string) (SinkBuilder, bool) { return sinks.Lookup(name) }

// SinkNames lists registered sinks in rank order.
func SinkNames() []string { return sinks.Names() }

// NewSink builds the named sink, or an error naming the registered
// sinks for an unknown name.
func NewSink(name string, cfg SinkConfig) (Sink, error) {
	b, ok := sinks.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("stats: unknown metric sink %q (registered: %v)", name, SinkNames())
	}
	return b(cfg)
}

// checkParams rejects parameter keys a sink does not understand.
func checkParams(sink string, params map[string]float64, known ...string) error {
	for k := range params {
		ok := false
		for _, kk := range known {
			if k == kk {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("stats: sink %q: unknown param %q (known: %v)", sink, k, known)
		}
	}
	return nil
}

// Fanout dispatches each hook to the run's root recorder and then to
// every configured sink in configuration order — the one ordering that
// is fixed by the spec, so exporter output is byte-identical regardless
// of how many workers share the process. It implements query.Sink so
// the root node's report/interval hooks reach all of them through the
// same wrapper chain the auditor taps.
type Fanout struct {
	root  *RootSink
	sinks []Sink
	radio []RadioObserver
}

var _ query.Sink = (*Fanout)(nil)

// NewFanout builds a dispatcher over the root recorder and sinks,
// collecting the subset of sinks that wants radio transitions.
func NewFanout(root *RootSink, s ...Sink) *Fanout {
	f := &Fanout{root: root, sinks: s}
	for _, sk := range s {
		if ro, ok := sk.(RadioObserver); ok {
			f.radio = append(f.radio, ro)
		}
	}
	return f
}

// ReportArrived implements query.Sink.
func (f *Fanout) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	f.root.ReportArrived(q, k, latency, coverage)
	for _, s := range f.sinks {
		s.ReportArrived(q, k, latency, coverage)
	}
}

// IntervalClosed implements query.Sink.
func (f *Fanout) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	f.root.IntervalClosed(q, k, latency, coverage)
	for _, s := range f.sinks {
		s.IntervalClosed(q, k, latency, coverage)
	}
}

// NodeDone forwards one node's end-of-run summary to every sink.
func (f *Fanout) NodeDone(n NodeSummary) {
	for _, s := range f.sinks {
		s.NodeDone(n)
	}
}

// RadioChanged forwards a radio transition to the sinks that observe
// them.
func (f *Fanout) RadioChanged(node int, from, to radio.State, at time.Duration) {
	for _, o := range f.radio {
		o.RadioChanged(node, from, to, at)
	}
}

// WantsRadio reports whether any configured sink observes radio
// transitions; Build skips radio subscriptions entirely when not.
func (f *Fanout) WantsRadio() bool { return len(f.radio) > 0 }

// Records finishes every sink in configuration order and returns the
// non-nil records, stamping the identity fields so sinks only fill
// payloads.
func (f *Fanout) Records(m RunMeta) []Record {
	var out []Record
	for _, s := range f.sinks {
		rec := s.Finish(m)
		if rec == nil {
			continue
		}
		rec.Schema = SchemaVersion
		rec.Sink = s.Name()
		rec.Protocol = m.Protocol
		rec.Seed = m.Seed
		out = append(out, *rec)
	}
	return out
}
