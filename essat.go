// Package essat is a faithful Go reproduction of "Efficient Power
// Management based on Application Timing Semantics for Wireless Sensor
// Networks" (Chipara, Lu, Roman — WUCSE-2004-26 / ICDCS 2005).
//
// ESSAT (Efficient Sleep Scheduling based on Application Timing) pairs a
// local just-in-time sleep scheduler, Safe Sleep, with an in-network
// traffic shaper that gives multi-hop query traffic predictable timing:
//
//   - NTS-SS: no shaping — forward greedily, wake everyone at period
//     boundaries. No delay penalty; energy grows linearly with tree rank.
//   - STS-SS: static shaping — pace transmissions by tree rank over an
//     assigned deadline D, with local deadline l = D/M.
//   - DTS-SS: dynamic shaping — Release-Guard-style self-tuning schedules
//     with piggybacked phase updates; the paper's headline protocol.
//
// The package bundles everything the paper's evaluation needs: a
// deterministic discrete-event simulator, a unit-disc wireless channel
// with collisions, a CSMA/CA (802.11 DCF style) MAC, flood-built
// aggregation trees, a periodic query service, the SPAN / PSM / SYNC
// baselines, and a catalog of the paper's figures (FigureCatalog).
//
// # Quick start
//
// Declaratively, from a JSON-serializable spec (protocols and topology
// generators are selected by name — see AllProtocols and
// TopologyGenerators):
//
//	res, err := essat.RunSpec(&essat.Spec{
//		Protocol: "DTS-SS",
//		Topology: "grid",
//		Duration: essat.Dur(60 * time.Second),
//		Workload: &essat.Workload{BaseRate: 1.0, PerClass: 1},
//	})
//	// res.DutyCycle, res.Latency, ...
//
// or imperatively, with full control over every Scenario knob:
//
//	sc := essat.DefaultScenario(essat.DTSSS, 1)
//	sc.Queries = essat.QueryClasses(rand.New(rand.NewSource(1)), 1.0, 1, 10*time.Second)
//	res, err := essat.Run(sc)
//
// See ARCHITECTURE.md for the layer stack and how to add new
// protocols or topology generators, examples/ for runnable programs,
// and cmd/essat-bench for the full figure suite. Each catalog figure
// declares a (variant, x, seed) grid that one runner executes on a
// bounded worker pool with deterministic aggregation — output is
// byte-identical for any worker count; see BENCHMARKS.md for the benchmark workflow and
// the BENCH_*.json throughput format.
package essat

import (
	"context"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/check"
	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/protocol"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/stats"
	"github.com/essat/essat/internal/topology"
)

// Protocol selects a power-management protocol by name.
type Protocol = protocol.Protocol

// The implemented protocols: the three ESSAT variants and the paper's
// three baselines (single source of truth: the internal/protocol
// table).
const (
	// NTSSS is Safe Sleep without traffic shaping (§4.2.1).
	NTSSS = protocol.NTSSS
	// STSSS is Safe Sleep with the static traffic shaper (§4.2.2).
	STSSS = protocol.STSSS
	// DTSSS is Safe Sleep with the dynamic traffic shaper (§4.2.3).
	DTSSS = protocol.DTSSS
	// SPAN keeps a backbone of non-leaf tree nodes always on; leaves run
	// NTS-SS (the paper's §5 configuration of SPAN).
	SPAN = protocol.SPAN
	// PSM is IEEE 802.11 power-save with traffic advertisements.
	PSM = protocol.PSM
	// SYNC is a synchronized fixed 20% duty cycle.
	SYNC = protocol.SYNC
	// TMAC is the adaptive-active-window baseline from the paper's
	// related-work discussion (van Dam & Langendoen, reference [12]).
	TMAC = protocol.TMAC
)

// AllProtocols lists every protocol in presentation order.
func AllProtocols() []Protocol { return protocol.All() }

// TopologyGenerators lists every placement generator
// ("uniform", "grid", "clusters", "corridor", ...); select one via
// Spec.Topology or Scenario.Topology.Generator.
func TopologyGenerators() []string { return topology.GeneratorNames() }

// ChannelModels lists every channel propagation model
// ("disc", "shadowing", "dual-disc", ...); select one via Spec.Channel
// or Scenario.Propagation. The default disc model is the paper's
// unit-disc channel.
func ChannelModels() []string { return phy.PropagationNames() }

// RadioProfiles lists every radio energy profile ("paper",
// "cc1000", "cc2420", ...); select one via Spec.Radio or
// Scenario.RadioProfile. The default paper profile is the ESSAT
// paper's §4.1 cost model.
func RadioProfiles() []string { return radio.ProfileNames() }

// EnergyProfile bundles one radio hardware's energy model (per-state
// power, transition latencies, derived break-even time).
type EnergyProfile = radio.EnergyProfile

// LookupRadioProfile returns the energy profile listed under name.
func LookupRadioProfile(name string) (EnergyProfile, bool) { return radio.LookupProfile(name) }

// TopologyConfig describes a deployment: scale plus placement
// generator; it is the type of Scenario.Topology.
type TopologyConfig = topology.Config

// QuerySpec describes one periodic query: period P, start phase φ, and a
// class label for result grouping.
type QuerySpec = query.Spec

// QueryID identifies a query.
type QueryID = query.ID

// Scenario fully describes one simulation run; see DefaultScenario.
type Scenario = experiment.Scenario

// Result aggregates one run's metrics.
type Result = experiment.Result

// DisseminationSpec describes a periodic root-to-leaves flow (the §3
// "data dissemination" extension); assign it to Scenario.Dissemination.
// Flow IDs must be disjoint from query IDs (negative IDs work well).
type DisseminationSpec = core.DisseminationSpec

// P2PSpec describes a periodic peer-to-peer flow routed through the tree
// (the §3 "peer-to-peer communication" extension); assign it to
// Scenario.PeerFlows. Flow IDs must be disjoint from query and
// dissemination IDs.
type P2PSpec = core.P2PSpec

// Dynamic is one row of Scenario.Dynamics, scheduled in order: a failure,
// query stop, node crash/recovery, per-link loss ramp or traffic burst.
type Dynamic = experiment.Dynamic

// DynamicsParams parameterizes a dynamics injector.
type DynamicsParams = dynamics.Params

// DynamicsKinds lists every fault/load injector kind
// ("fail", "stop", "crash", "linkloss", "burst") in presentation order.
func DynamicsKinds() []string { return dynamics.Kinds() }

// AuditSummary is the invariant auditor's report: the canonical trace
// digest, the audited event count, and any invariant violations. It is
// attached to Result.Audit when Scenario.Audit (or Spec.Audit) is set.
type AuditSummary = check.Summary

// AuditViolation is one observed invariant breach.
type AuditViolation = check.Violation

// Figure is a reproduced table/figure ready to print.
type Figure = experiment.Figure

// Options scales the catalog figures (run duration, seeds, node count).
type Options = experiment.Options

// DefaultScenario returns the paper's §5 experimental setup (80 nodes in
// 500×500 m², 125 m range, flood-built tree within 300 m of the central
// root, MICA2-like radio, 200 s run) for the given protocol and seed.
// Queries must still be assigned; see QueryClasses.
func DefaultScenario(p Protocol, seed int64) Scenario {
	return experiment.DefaultScenario(p, seed)
}

// Run executes a scenario and returns its metrics.
func Run(sc Scenario) (*Result, error) { return experiment.Run(sc) }

// Budget bounds one run's resource consumption (wall-clock time, event
// count); the zero value is unlimited. See RunSpecContext.
type Budget = experiment.Budget

// BudgetExceededError reports a run terminated by its Budget.
type BudgetExceededError = experiment.BudgetExceededError

// PanicError reports a run whose protocol stack panicked mid-flight,
// contained at the Run, RunWith or RunSpecContext boundary. It carries
// the protocol, seed, stack, and (for spec runs) the spec JSON —
// everything needed to reproduce the crash.
type PanicError = experiment.PanicError

// RunSpecContext compiles and runs a declarative spec under ctx and the
// budget; a contained panic's error carries the marshaled spec.
func RunSpecContext(ctx context.Context, s *Spec, b Budget) (*Result, error) {
	return experiment.RunSpecContextWith(ctx, nil, s, b)
}

// Sim is a fully built scenario paused at time zero; see BuildWith.
type Sim = experiment.Sim

// Spec is the declarative, JSON-serializable description of one
// scenario; see RunSpec, LoadSpec, and the Spec field docs.
type Spec = experiment.Spec

// Workload generates the paper's three-class workload from a Spec.
type Workload = experiment.WorkloadSpec

// FlowSpec, DynamicsSpec, ChannelSpec and RadioSpec are the Spec forms
// of dissemination/peer flows, dynamics rows (failures, query stops and
// the other injectors), the channel propagation model, and the radio
// energy profile.
type (
	FlowSpec     = experiment.FlowSpec
	DynamicsSpec = experiment.DynamicsSpec
	ChannelSpec  = experiment.ChannelSpec
	RadioSpec    = experiment.RadioSpec
)

// ResultsSpec and SinkSpec are the Spec forms of the results pipeline:
// a list of metric sinks from the stats table observing the run,
// whose records land in Result.Records.
type (
	ResultsSpec = experiment.ResultsSpec
	SinkSpec    = experiment.SinkSpec
)

// SinkChoice is the Scenario form of one attached metric sink.
type SinkChoice = experiment.SinkChoice

// MetricRecord is one metric sink's structured output for one run —
// the mergeable unit the server returns, the campaign journals, and
// JSONL exports carry one-per-line.
type MetricRecord = stats.Record

// MetricSchemaVersion is the version stamped into every MetricRecord.
const MetricSchemaVersion = stats.SchemaVersion

// MetricSinks lists every metric sink in presentation order.
func MetricSinks() []string { return stats.SinkNames() }

// ValidateMetricRecord checks a record against the versioned schema:
// correct version, named sink, a known kind, and a payload consistent
// with that kind.
func ValidateMetricRecord(r *MetricRecord) error { return stats.ValidateRecord(r) }

// Duration is the JSON-friendly duration used throughout Spec; it
// marshals as a Go duration string ("250ms").
type Duration = experiment.Duration

// Dur converts a time.Duration to the Spec form.
func Dur(d time.Duration) Duration { return experiment.Dur(d) }

// ParseSpec decodes a JSON spec, rejecting unknown fields.
func ParseSpec(data []byte) (*Spec, error) { return experiment.ParseSpec(data) }

// LoadSpec reads and decodes a JSON spec file.
func LoadSpec(path string) (*Spec, error) { return experiment.LoadSpec(path) }

// RunSpec compiles and runs a declarative spec.
func RunSpec(s *Spec) (*Result, error) { return experiment.RunSpec(s) }

// Arena is reusable per-run state for repeated scenario execution: one
// engine whose event freelist and typed memory pools are reset — not
// freed — between runs, plus an optional shared deployment cache.
// Results are byte-identical with or without one; an arena changes
// where memory comes from, never what a run computes. Single-threaded:
// use one Arena per goroutine, sharing a DeployCache.
type Arena = experiment.Arena

// DeployCache is a bounded, concurrency-safe LRU cache of built
// deployments (topology + routing-tree template) keyed by the scenario
// fields that determine placement.
type DeployCache = experiment.DeployCache

// NewArenaWithCache returns an arena serving deployments from cache;
// several arenas may share one cache, and a nil cache builds every
// deployment afresh.
func NewArenaWithCache(c *DeployCache) *Arena { return experiment.NewArenaWithCache(c) }

// NewDeployCache returns a deployment cache bounded to max entries
// (<= 0 selects the default size).
func NewDeployCache(max int) *DeployCache { return experiment.NewDeployCache(max) }

// BuildWith constructs a scenario's simulation on a reusable arena (nil
// for a private one) without running it, for callers that want to
// inspect or instrument the stack between the explicit build →
// simulate → collect stages:
//
//	s, err := essat.BuildWith(nil, sc)
//	s.Simulate()
//	res := s.Collect()
func BuildWith(a *Arena, sc Scenario) (*Sim, error) { return experiment.BuildWith(a, sc) }

// RunWith is Run executing on a reusable arena; a nil arena is plain Run.
func RunWith(a *Arena, sc Scenario) (*Result, error) {
	return experiment.RunContextWith(context.Background(), a, sc, Budget{})
}

// FigureInfo is one FigureCatalog entry: a figure's ID and printed
// title, whether it is an ablation or robustness study, and Run, which
// regenerates it at the given Options.
type FigureInfo = experiment.FigureInfo

// FigureCatalog lists every figure and study in presentation order;
// it is the list essat-bench runs and essat-sim -list prints.
func FigureCatalog() []FigureInfo { return experiment.FigureCatalog() }

// QueryClasses builds the paper's three-class workload with rate ratio
// Q1:Q2:Q3 = 6:3:2, Q1 at baseRate Hz, perClass queries per class, and
// random start phases in [0, phaseMax).
func QueryClasses(rng *rand.Rand, baseRate float64, perClass int, phaseMax time.Duration) []QuerySpec {
	return experiment.QueryClasses(rng, baseRate, perClass, phaseMax)
}

// PaperOptions reproduces the paper's full experimental setting
// (200-second runs, 5 seeds per point, 80 nodes).
func PaperOptions() Options { return experiment.PaperOptions() }

// QuickOptions is a scaled-down setting for exploration and CI.
func QuickOptions() Options { return experiment.QuickOptions() }
