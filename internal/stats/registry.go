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

// Sink is a streaming metric observer. A run's observer calls each sink
// where it calls the invariant auditor — report arrivals and interval
// closes at the root, radio state transitions (via the optional
// RadioObserver interface) — and once per live member with its
// end-of-run energy accounting. Sinks must be pure observers: they may
// not influence the simulation, so trace digests are identical with any
// sink set. The run's observer fixes the order of every call; Finish
// comes last, once.
type Sink interface {
	// Name returns the sink's registered name.
	Name() string
	// ReportArrived observes one report reaching the root.
	ReportArrived(q query.ID, interval int, latency time.Duration, coverage int)
	// IntervalClosed observes the root closing a query interval.
	IntervalClosed(q query.ID, interval int, latency time.Duration, coverage int)
	// NodeDone observes one node's end-of-run summary.
	NodeDone(n NodeSummary)
	// Finish produces the sink's record, or nil for none.
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

// Records finishes every sink in order and returns the non-nil
// records, stamping the identity fields so sinks fill only payloads.
func Records(sinks []Sink, m RunMeta) []Record {
	var out []Record
	for _, s := range sinks {
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
