package stats

import (
	"errors"
	"fmt"
)

// SchemaVersion is the version stamped into every Record. Consumers
// (the campaign merger, external dashboards, the CI schema check)
// reject records from a different version instead of misreading them;
// bump it whenever a field changes meaning or shape.
const SchemaVersion = 1

// Record kinds: the payload shape a record carries.
const (
	// KindTimeseries carries per-node bucketed series (Series set).
	KindTimeseries = "timeseries"
	// KindHistogram carries one binned distribution (Histogram set).
	KindHistogram = "histogram"
	// KindEvents carries the raw observation stream (Events set).
	KindEvents = "events"
)

// Record is one metric sink's structured output for one run — the
// mergeable unit the server returns, the campaign journals, and the
// JSONL exporter writes one-per-line. Identity fields (Schema, Sink,
// Protocol, Seed) are stamped by Records; sinks fill only Kind and the
// payload matching it. Every field is deterministic for a
// given (spec, seed): no wall-clock content, and map keys marshal
// sorted, so records are byte-comparable across processes and worker
// counts.
type Record struct {
	Schema   int    `json:"schema"`
	Sink     string `json:"sink"`
	Kind     string `json:"kind"`
	Protocol string `json:"protocol,omitempty"`
	Seed     int64  `json:"seed,omitempty"`

	// Scalars holds named summary values (any kind may carry them).
	Scalars map[string]float64 `json:"scalars,omitempty"`
	// Series holds per-node bucketed time series (KindTimeseries).
	Series []Series `json:"series,omitempty"`
	// Histogram holds one binned distribution (KindHistogram).
	Histogram *HistogramRecord `json:"histogram,omitempty"`
	// Events holds the raw observation stream (KindEvents).
	Events []Event `json:"events,omitempty"`
}

// Series is one node's bucketed time series.
type Series struct {
	Node     int       `json:"node"`
	Rank     int       `json:"rank"`
	BucketMs float64   `json:"bucket_ms"`
	Values   []float64 `json:"values"`
}

// HistogramRecord is the serialized form of a binned distribution.
// Overflow counts values beyond the last bin; Counts plus Overflow must
// sum to Total.
type HistogramRecord struct {
	Unit     string   `json:"unit"`
	BinWidth float64  `json:"bin_width"`
	Counts   []uint64 `json:"counts"`
	Overflow uint64   `json:"overflow,omitempty"`
	Total    uint64   `json:"total"`
}

// Event kinds mirror the sink hooks: report arrivals, interval closes,
// and per-node end-of-run summaries.
const (
	EventReport   = "report"
	EventInterval = "interval"
	EventNode     = "node"
)

// Event is one sink observation. Which fields are meaningful
// depends on Kind: report/interval events carry query, interval,
// latency and coverage; node events carry node, rank, duty cycle and
// energy.
type Event struct {
	Kind      string  `json:"kind"`
	Query     int64   `json:"query,omitempty"`
	Interval  int     `json:"interval,omitempty"`
	LatencyNs int64   `json:"latency_ns,omitempty"`
	Coverage  int     `json:"coverage,omitempty"`
	Node      int     `json:"node,omitempty"`
	Rank      int     `json:"rank,omitempty"`
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	EnergyJ   float64 `json:"energy_j,omitempty"`
}

// ValidateRecord checks a record against the versioned schema: correct
// schema version, named sink, a known kind, and a payload consistent
// with that kind. The CI exporter smoke runs every emitted record
// through this before accepting it.
func ValidateRecord(r *Record) error {
	if r == nil {
		return errors.New("stats: nil record")
	}
	if r.Schema != SchemaVersion {
		return fmt.Errorf("stats: record schema %d, want %d", r.Schema, SchemaVersion)
	}
	if r.Sink == "" {
		return errors.New("stats: record has no sink name")
	}
	switch r.Kind {
	case KindTimeseries:
		if r.Histogram != nil || r.Events != nil {
			return fmt.Errorf("stats: %s record from %q carries a foreign payload", r.Kind, r.Sink)
		}
		for i, s := range r.Series {
			if s.BucketMs <= 0 {
				return fmt.Errorf("stats: %s record from %q: series %d has bucket_ms %g", r.Kind, r.Sink, i, s.BucketMs)
			}
		}
	case KindHistogram:
		if r.Histogram == nil {
			return fmt.Errorf("stats: %s record from %q has no histogram", r.Kind, r.Sink)
		}
		if r.Series != nil || r.Events != nil {
			return fmt.Errorf("stats: %s record from %q carries a foreign payload", r.Kind, r.Sink)
		}
		h := r.Histogram
		if h.BinWidth <= 0 {
			return fmt.Errorf("stats: %s record from %q: bin width %g", r.Kind, r.Sink, h.BinWidth)
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		if sum+h.Overflow != h.Total {
			return fmt.Errorf("stats: %s record from %q: counts %d + overflow %d != total %d",
				r.Kind, r.Sink, sum, h.Overflow, h.Total)
		}
	case KindEvents:
		if r.Series != nil || r.Histogram != nil {
			return fmt.Errorf("stats: %s record from %q carries a foreign payload", r.Kind, r.Sink)
		}
		for i, e := range r.Events {
			switch e.Kind {
			case EventReport, EventInterval, EventNode:
			default:
				return fmt.Errorf("stats: %s record from %q: event %d has unknown kind %q", r.Kind, r.Sink, i, e.Kind)
			}
		}
	default:
		return fmt.Errorf("stats: record from %q has unknown kind %q", r.Sink, r.Kind)
	}
	return nil
}
