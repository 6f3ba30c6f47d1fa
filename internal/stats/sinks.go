package stats

import (
	"fmt"
	"math"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/registry"
)

// timeseriesSink integrates each node's radio awake time into
// fixed-width buckets and emits one awake-fraction series per live
// member. Series cover nodes that reach end-of-run accounting: a node
// killed mid-run never gets a NodeDone and is omitted. Timelines are
// indexed by node ID.
type timeseriesSink struct {
	bucket   time.Duration
	duration time.Duration
	nodes    []nodeTimeline
	series   []Series
}

// nodeTimeline is one node's awake-time integration state. Radios start
// Idle at time zero, so a node is awake until its first observed
// transition says otherwise.
type nodeTimeline struct {
	lastAt  time.Duration
	awake   bool
	buckets []time.Duration // awake time accumulated per bucket
}

func newTimeseriesSink(cfg SinkConfig) (Sink, error) {
	p := registry.ReadParams(cfg.Params)
	bucketMs := p.Float("bucket_ms", 1000)
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("stats: sink %q: %w", SinkTimeseries, err)
	}
	if bucketMs <= 0 || math.IsNaN(bucketMs) || math.IsInf(bucketMs, 0) {
		return nil, fmt.Errorf("stats: sink %q: bucket_ms must be positive, got %g", SinkTimeseries, bucketMs)
	}
	bucket := time.Duration(bucketMs * float64(time.Millisecond))
	nodes := make([]nodeTimeline, cfg.Nodes)
	for i := range nodes {
		nodes[i].awake = true
	}
	return &timeseriesSink{bucket: bucket, duration: cfg.Duration, nodes: nodes}, nil
}

func (t *timeseriesSink) Name() string { return SinkTimeseries }

func (t *timeseriesSink) ReportArrived(q query.ID, k int, latency time.Duration, coverage int)  {}
func (t *timeseriesSink) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {}

// RadioChanged implements RadioObserver.
func (t *timeseriesSink) RadioChanged(node int, from, to radio.State, at time.Duration) {
	tl := &t.nodes[node]
	tl.advance(t.bucket, at)
	tl.awake = to != radio.Off
}

// advance integrates awake time from the last observation up to now,
// splitting across bucket boundaries. Buckets grow on demand so the
// sink needs no up-front duration.
func (tl *nodeTimeline) advance(bucket, now time.Duration) {
	if now < tl.lastAt {
		now = tl.lastAt
	}
	if tl.awake {
		for at := tl.lastAt; at < now; {
			i := int(at / bucket)
			end := time.Duration(i+1) * bucket
			if end > now {
				end = now
			}
			for len(tl.buckets) <= i {
				tl.buckets = append(tl.buckets, 0)
			}
			tl.buckets[i] += end - at
			at = end
		}
	}
	tl.lastAt = now
}

// NodeDone finalizes the node's timeline to the run duration and emits
// its series. Collect's order of calls is fixed, so series order is
// deterministic.
func (t *timeseriesSink) NodeDone(n NodeSummary) {
	tl := &t.nodes[n.Node]
	tl.advance(t.bucket, t.duration)
	want := 0
	if t.duration > 0 {
		want = int((t.duration + t.bucket - 1) / t.bucket)
	}
	for len(tl.buckets) < want {
		tl.buckets = append(tl.buckets, 0)
	}
	values := make([]float64, len(tl.buckets))
	for i, a := range tl.buckets {
		w := t.bucket
		if end := time.Duration(i+1) * t.bucket; t.duration > 0 && end > t.duration {
			w = t.duration - time.Duration(i)*t.bucket // final partial bucket
		}
		if w > 0 {
			values[i] = float64(a) / float64(w)
		}
	}
	t.series = append(t.series, Series{
		Node:     n.Node,
		Rank:     n.Rank,
		BucketMs: float64(t.bucket) / float64(time.Millisecond),
		Values:   values,
	})
}

func (t *timeseriesSink) Finish(m RunMeta) *Record {
	return &Record{Kind: KindTimeseries, Series: t.series}
}

// LifetimeBatteryJ is the battery of the lifetime model, about a pair
// of AA cells' usable energy at sensor loads. A network lives until its
// hungriest node (typically near the root) drains this at the draw
// observed in the measurement window.
const LifetimeBatteryJ = 20_000.0

// energySink bins per-node energy consumption over the measurement
// window into a histogram and derives the lifetime scalars Collect
// computes for the legacy aggregate, so campaign dashboards get the
// full distribution rather than mean/max alone.
type energySink struct {
	binJ     float64
	counts   []uint64
	overflow uint64
	total    uint64
	window   time.Duration
	mean     Welford
	maxJ     float64
}

func newEnergySink(cfg SinkConfig) (Sink, error) {
	p := registry.ReadParams(cfg.Params)
	binJ := p.Float("bin_j", 0.25)
	bins := p.Float("bins", 40)
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("stats: sink %q: %w", SinkEnergy, err)
	}
	if binJ <= 0 || math.IsNaN(binJ) || math.IsInf(binJ, 0) {
		return nil, fmt.Errorf("stats: sink %q: bin_j must be positive, got %g", SinkEnergy, binJ)
	}
	if bins < 1 || bins != math.Trunc(bins) || bins > 1<<20 {
		return nil, fmt.Errorf("stats: sink %q: bins must be a positive integer, got %g", SinkEnergy, bins)
	}
	window := cfg.Duration - cfg.MeasureFrom
	if window < 0 {
		window = 0
	}
	return &energySink{binJ: binJ, counts: make([]uint64, int(bins)), window: window}, nil
}

func (e *energySink) Name() string { return SinkEnergy }

func (e *energySink) ReportArrived(q query.ID, k int, latency time.Duration, coverage int)  {}
func (e *energySink) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {}

func (e *energySink) NodeDone(n NodeSummary) {
	e.total++
	e.mean.Add(n.EnergyJ)
	if n.EnergyJ > e.maxJ {
		e.maxJ = n.EnergyJ
	}
	i := 0
	if n.EnergyJ > 0 {
		i = int(n.EnergyJ / e.binJ)
	}
	if i >= len(e.counts) {
		e.overflow++
		return
	}
	e.counts[i]++
}

func (e *energySink) Finish(m RunMeta) *Record {
	scalars := map[string]float64{
		"nodes":  float64(e.total),
		"mean_j": e.mean.Mean(),
		"max_j":  e.maxJ,
	}
	if e.maxJ > 0 && e.window > 0 {
		draw := e.maxJ / e.window.Seconds()
		scalars["lifetime_days"] = LifetimeBatteryJ / draw / 86_400
	}
	return &Record{
		Kind:    KindHistogram,
		Scalars: scalars,
		Histogram: &HistogramRecord{
			Unit:     "J",
			BinWidth: e.binJ,
			Counts:   append([]uint64(nil), e.counts...),
			Overflow: e.overflow,
			Total:    e.total,
		},
	}
}

// jsonlSink captures every sink observation verbatim, in arrival
// order — the raw stream downstream tooling can re-aggregate any way it
// likes. Event order is the engine's deterministic event order followed
// by node-ID-ordered summaries, so the marshaled record is
// byte-identical across processes and worker counts.
type jsonlSink struct {
	events []Event
}

func newJSONLSink(cfg SinkConfig) (Sink, error) {
	p := registry.ReadParams(cfg.Params)
	if err := p.Done(); err != nil {
		return nil, fmt.Errorf("stats: sink %q: %w", SinkJSONL, err)
	}
	return &jsonlSink{}, nil
}

func (j *jsonlSink) Name() string { return SinkJSONL }

func (j *jsonlSink) ReportArrived(q query.ID, k int, latency time.Duration, coverage int) {
	j.events = append(j.events, Event{
		Kind: EventReport, Query: int64(q), Interval: k,
		LatencyNs: latency.Nanoseconds(), Coverage: coverage,
	})
}

func (j *jsonlSink) IntervalClosed(q query.ID, k int, latency time.Duration, coverage int) {
	j.events = append(j.events, Event{
		Kind: EventInterval, Query: int64(q), Interval: k,
		LatencyNs: latency.Nanoseconds(), Coverage: coverage,
	})
}

func (j *jsonlSink) NodeDone(n NodeSummary) {
	j.events = append(j.events, Event{
		Kind: EventNode, Node: n.Node, Rank: n.Rank,
		DutyCycle: n.Duty, EnergyJ: n.EnergyJ,
	})
}

func (j *jsonlSink) Finish(m RunMeta) *Record {
	return &Record{
		Kind:    KindEvents,
		Scalars: map[string]float64{"events": float64(len(j.events))},
		Events:  j.events,
	}
}
