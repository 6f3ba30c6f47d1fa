package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/topology"
)

// Spec is the declarative, JSON-serializable description of one
// scenario: protocol by name, topology generator by name, and the
// workload, perturbations, and flows on top. It deliberately exposes only
// names and parameters — no wiring — so scenarios can live in files, be
// diffed, and be generated by tools. Spec.Scenario compiles it onto
// DefaultScenario, so omitted fields keep the paper's §5 setup.
type Spec struct {
	// Protocol is the protocol's name ("DTS-SS", "PSM", ...; see
	// protocol.All). Required.
	Protocol string `json:"protocol"`
	// Seed drives node placement, query phases, and every other random
	// choice; 0 selects seed 1.
	Seed int64 `json:"seed,omitempty"`

	// Nodes, Area, and Range override the paper's deployment scale
	// (80 nodes, 500 m, 125 m) when positive.
	Nodes int     `json:"nodes,omitempty"`
	Area  float64 `json:"area,omitempty"`
	Range float64 `json:"range,omitempty"`
	// Topology selects a placement generator by name; empty keeps
	// uniform-random, which takes no knobs. TopologyParams passes the
	// generator's knobs (grid "jitter", clusters "clusters"/"spread",
	// corridor "width"); an unknown key is a compile error.
	Topology       string             `json:"topology,omitempty"`
	TopologyParams map[string]float64 `json:"topology_params,omitempty"`
	// TreeMaxDist limits the routing tree to nodes within this distance
	// of the root, in meters (default 300, the paper's setup).
	TreeMaxDist float64 `json:"tree_max_dist,omitempty"`
	// BFSTree selects the idealized min-hop tree instead of the
	// simulated setup flood.
	BFSTree bool `json:"bfs_tree,omitempty"`

	// Duration of the run (default 200s); metrics are measured from
	// MeasureFrom (default 10s, clamped to Duration/5 on short runs).
	Duration    Duration  `json:"duration,omitempty"`
	MeasureFrom *Duration `json:"measure_from,omitempty"`

	// Workload generates the paper's three-class query set; Queries adds
	// explicit queries on top. At least one of the two is required.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	Queries  []QueryJSON   `json:"queries,omitempty"`

	// Deadline is the STS deadline D (0 = query period). BreakEven is
	// the Safe Sleep tBE; omitted = the radio's intrinsic break-even
	// time, explicit "0s" = sleep through any gap.
	Deadline         Duration  `json:"deadline,omitempty"`
	BreakEven        *Duration `json:"break_even,omitempty"`
	DisableSafeSleep bool      `json:"disable_safe_sleep,omitempty"`
	NoBuffering      bool      `json:"no_buffering,omitempty"`

	// Channel selects the propagation model ("disc", "shadowing",
	// "dual-disc") with its knobs; omitted keeps the paper's unit-disc
	// channel. Radio selects the radio energy profile ("paper",
	// "cc1000", "cc2420"); omitted keeps the paper's cost model. Both
	// names and all model params are validated at compile time.
	Channel *ChannelSpec `json:"channel,omitempty"`
	Radio   *RadioSpec   `json:"radio,omitempty"`

	// Loss injects independent per-delivery frame loss; FailureThreshold
	// enables the §4.3 failure detector (missed reports before declaring
	// a child dead; 0 = off).
	Loss             float64 `json:"loss,omitempty"`
	FailureThreshold int     `json:"failure_threshold,omitempty"`

	// Dynamics lists injectors perturbing the run mid-flight (failures,
	// query stops, node crash/recovery, per-link loss ramps, traffic
	// bursts), scheduled in order; see internal/dynamics for the listed
	// kinds.
	Dynamics []DynamicsSpec `json:"dynamics,omitempty"`

	// Audit enables the cross-layer invariant auditor: every run-time
	// invariant is validated and Result.Audit carries the canonical
	// trace digest. Auditing never changes a run's behavior.
	Audit bool `json:"audit,omitempty"`

	// Results selects metric sinks beyond the always-on root recorder
	// ("timeseries", "energy", "jsonl"; see stats.SinkNames). Sink names
	// and params are validated at compile time; the sinks' records land
	// in Result.Records. Like auditing, sinks never change a run's
	// behavior.
	Results *ResultsSpec `json:"results,omitempty"`

	// BatteryJ gives every non-root node a finite energy budget in
	// joules; SetupSlot enables the paper's in-band query setup flood.
	BatteryJ  float64  `json:"battery_j,omitempty"`
	SetupSlot Duration `json:"setup_slot,omitempty"`

	// TraceCapacity, when positive, records the last N structured events
	// (radio transitions, failure recovery) across all nodes.
	TraceCapacity int `json:"trace_capacity,omitempty"`

	// Dissemination adds periodic root-to-leaves flows; Peers adds
	// periodic peer-to-peer flows (the §3 extensions). Flow IDs must be
	// disjoint from query IDs (negative IDs work well).
	Dissemination []FlowSpec `json:"dissemination,omitempty"`
	Peers         []FlowSpec `json:"peers,omitempty"`
}

// WorkloadSpec generates the paper's workload: PerClass queries in each
// of three classes with rate ratio 6:3:2 (Q1 at BaseRate Hz), phases
// uniform in [0, PhaseMax).
type WorkloadSpec struct {
	BaseRate float64 `json:"base_rate"`
	PerClass int     `json:"per_class"`
	// PhaseMax bounds the random start phases (default 10s).
	PhaseMax Duration `json:"phase_max,omitempty"`
	// Seed drives the phase rng; 0 derives it from the scenario seed
	// (seed × 7919, the figures' rate-workload convention).
	Seed int64 `json:"seed,omitempty"`
}

// ChannelSpec selects a propagation model by name with its
// knobs (shadowing "sigma"/"pathloss", dual-disc "inner"/"outer").
// Unknown model names and unknown param keys are build errors.
type ChannelSpec struct {
	Model  string             `json:"model"`
	Params map[string]float64 `json:"params,omitempty"`
}

// ResultsSpec selects the run's metric sinks.
type ResultsSpec struct {
	Sinks []SinkSpec `json:"sinks"`
}

// SinkSpec names one metric sink from the stats table with its
// parameters (timeseries "bucket_ms", energy "bin_j"/"bins"). Unknown
// sink names and unknown param keys are compile errors.
type SinkSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// RadioSpec selects a radio energy profile by name.
type RadioSpec struct {
	Profile string `json:"profile"`
}

// QueryJSON is one explicit periodic query.
type QueryJSON struct {
	ID     int64    `json:"id"`
	Period Duration `json:"period"`
	Phase  Duration `json:"phase,omitempty"`
	Class  int      `json:"class,omitempty"`
}

// DynamicsSpec configures one fault/load injector. Kind names a listed
// injector kind ("fail", "stop", "crash", "linkloss", "burst"); the
// remaining fields parameterize it — each kind reads the subset it
// needs. A node pin must not be negative; omit it for a random node.
//
//   - fail: at, node (the victim; omitted = a random non-root member,
//     preferring non-leaves, drawn from the run's rng).
//   - stop: at, query (the query to deregister).
//   - crash: at, duration (outage length; omitted = permanent), count
//     (victims, default 1), node (pin a victim; omitted = seed-driven),
//     seed.
//   - linkloss: at, duration (episode length), peak (maximum drop
//     probability), steps (adjustments, default 8), node (focal node;
//     omitted = seed-driven), seed.
//   - burst: at, duration (burst length), period (report period),
//     queries (extra queries, default 1), seed.
type DynamicsSpec struct {
	Kind     string   `json:"kind"`
	At       Duration `json:"at,omitempty"`
	Duration Duration `json:"duration,omitempty"`
	Node     *int     `json:"node,omitempty"`
	Count    int      `json:"count,omitempty"`
	Peak     float64  `json:"peak,omitempty"`
	Steps    int      `json:"steps,omitempty"`
	Period   Duration `json:"period,omitempty"`
	Queries  int      `json:"queries,omitempty"`
	Query    int64    `json:"query,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
}

// FlowSpec describes one dissemination or peer flow. Src/Dst apply to
// peer flows only; nil (omitted) picks random distinct tree members,
// and an explicit negative ID is refused.
type FlowSpec struct {
	ID           int64    `json:"id"`
	Src          *int     `json:"src,omitempty"`
	Dst          *int     `json:"dst,omitempty"`
	Period       Duration `json:"period"`
	Phase        Duration `json:"phase,omitempty"`
	HopAllowance Duration `json:"hop_allowance,omitempty"`
}

// Duration is a time.Duration that marshals as a Go duration string
// ("250ms", "30s"); unmarshaling also accepts a bare number of
// nanoseconds for compatibility with time.Duration's JSON form.
type Duration time.Duration

// D converts to the standard library type.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Dur converts from the standard library type.
func Dur(d time.Duration) Duration { return Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case float64:
		*d = Duration(time.Duration(x))
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("spec: invalid duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	default:
		return fmt.Errorf("spec: duration must be a string or a number of nanoseconds, got %v", v)
	}
	return nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so typos in
// scenario files fail loudly instead of silently reverting to defaults.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, nil
}

// LoadSpec reads and decodes a JSON spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Scenario compiles the spec onto the paper's default setup and returns
// the compiled scenario's check. It refuses itself only what JSON alone
// can get wrong: an explicit negative where Scenario gives negative a
// meaning or zero means the default, an empty or repeated results
// block, and a bad workload block, plus its one-node placement probe.
func (s *Spec) Scenario() (Scenario, error) {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	sc := DefaultScenario(Protocol(s.Protocol), seed)

	if s.Nodes > 0 {
		sc.Topology.NumNodes = s.Nodes
	}
	if s.Area > 0 {
		sc.Topology.AreaSide = s.Area
	}
	if s.Range > 0 {
		sc.Topology.Range = s.Range
	}
	if s.Topology != "" || len(s.TopologyParams) > 0 {
		sc.Topology.Generator = s.Topology
		sc.Topology.Params = s.TopologyParams
		// Place one node against a throwaway rng: an unknown generator,
		// an unknown param key or a bad value must fail the compile, not
		// the run.
		probe := sc.Topology
		probe.NumNodes = 1
		if err := topology.Replay(rand.New(rand.NewSource(1)), probe, nil); err != nil {
			return Scenario{}, fmt.Errorf("spec: %w", err)
		}
	}
	if s.TreeMaxDist > 0 {
		sc.TreeMaxDist = s.TreeMaxDist
	}
	sc.BFSTree = s.BFSTree

	if c := s.Channel; c != nil {
		sc.Propagation = c.Model
		sc.PropagationParams = c.Params
	}
	if r := s.Radio; r != nil {
		sc.RadioProfile = r.Profile
	}

	if s.Duration > 0 {
		sc.Duration = s.Duration.D()
	}
	if s.MeasureFrom != nil {
		sc.MeasureFrom = s.MeasureFrom.D()
	} else if sc.MeasureFrom >= sc.Duration {
		sc.MeasureFrom = sc.Duration / 5
	}

	if w := s.Workload; w != nil {
		if w.BaseRate <= 0 || w.PerClass <= 0 {
			return Scenario{}, fmt.Errorf("spec: workload base_rate and per_class must be positive, got %g and %d", w.BaseRate, w.PerClass)
		}
		phaseMax := w.PhaseMax.D()
		if phaseMax <= 0 {
			phaseMax = 10 * time.Second
		}
		wseed := w.Seed
		if wseed == 0 {
			wseed = seed * 7919
		}
		rng := rand.New(rand.NewSource(wseed))
		sc.Queries = QueryClasses(rng, w.BaseRate, w.PerClass, phaseMax)
	}
	for _, q := range s.Queries {
		sc.Queries = append(sc.Queries, query.Spec{
			ID:     query.ID(q.ID),
			Period: q.Period.D(),
			Phase:  q.Phase.D(),
			Class:  q.Class,
		})
	}

	sc.STSDeadline = s.Deadline.D()
	if s.BreakEven != nil {
		sc.SSBreakEven = s.BreakEven.D()
	}
	sc.DisableSafeSleep = s.DisableSafeSleep
	sc.NoBuffering = s.NoBuffering

	sc.LossRate = s.Loss
	sc.FailureThreshold = s.FailureThreshold
	for _, d := range s.Dynamics {
		sc.Dynamics = append(sc.Dynamics, Dynamic{Kind: d.Kind, Params: dynamics.Params{
			At:       d.At.D(),
			Duration: d.Duration.D(),
			Node:     d.Node,
			Count:    d.Count,
			Peak:     d.Peak,
			Steps:    d.Steps,
			Period:   d.Period.D(),
			Queries:  d.Queries,
			Query:    query.ID(d.Query),
			Seed:     d.Seed,
		}})
	}
	sc.Audit = s.Audit

	if r := s.Results; r != nil {
		if len(r.Sinks) == 0 {
			return Scenario{}, fmt.Errorf("spec: results block must name at least one sink")
		}
		seen := make(map[string]bool, len(r.Sinks))
		for _, sk := range r.Sinks {
			if seen[sk.Name] {
				return Scenario{}, fmt.Errorf("spec: duplicate results sink %q", sk.Name)
			}
			seen[sk.Name] = true
			sc.Sinks = append(sc.Sinks, SinkChoice{Name: sk.Name, Params: sk.Params})
		}
	}

	// Zero keeps the default run length and turns each of the others
	// off; a negative value is a mistake, not a request for either.
	switch {
	case s.Duration < 0:
		return Scenario{}, fmt.Errorf("spec: duration must be non-negative, got %v", s.Duration.D())
	case s.BatteryJ < 0:
		return Scenario{}, fmt.Errorf("spec: battery_j must be non-negative, got %g", s.BatteryJ)
	case s.SetupSlot < 0:
		return Scenario{}, fmt.Errorf("spec: setup_slot must be non-negative, got %v", s.SetupSlot.D())
	case s.TraceCapacity < 0:
		return Scenario{}, fmt.Errorf("spec: trace_capacity must be non-negative, got %d", s.TraceCapacity)
	}
	sc.BatteryJ = s.BatteryJ
	sc.SetupSlot = s.SetupSlot.D()
	sc.TraceCapacity = s.TraceCapacity

	for _, f := range s.Dissemination {
		sc.Dissemination = append(sc.Dissemination, core.DisseminationSpec{
			ID:           query.ID(f.ID),
			Period:       f.Period.D(),
			Phase:        f.Phase.D(),
			HopAllowance: f.HopAllowance.D(),
		})
	}
	for _, f := range s.Peers {
		src, dst := -1, -1
		if f.Src != nil {
			src = *f.Src
		}
		if f.Dst != nil {
			dst = *f.Dst
		}
		if (f.Src != nil && src < 0) || (f.Dst != nil && dst < 0) {
			return Scenario{}, fmt.Errorf("spec: peer flow %d: a pinned src or dst must not be negative (omit both for random endpoints)", f.ID)
		}
		sc.PeerFlows = append(sc.PeerFlows, core.P2PSpec{
			ID:           query.ID(f.ID),
			Src:          query.NodeID(src),
			Dst:          query.NodeID(dst),
			Period:       f.Period.D(),
			Phase:        f.Phase.D(),
			HopAllowance: f.HopAllowance.D(),
		})
	}
	if _, err := sc.check(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}
