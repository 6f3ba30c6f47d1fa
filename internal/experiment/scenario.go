// Package experiment builds and runs the paper's evaluation scenarios
// (§5): 80 nodes in 500×500 m², three query classes with rate ratio
// 6:3:2, five protocols, 200-second runs — and provides one driver per
// figure of the paper plus the ablation studies from DESIGN.md.
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/baseline"
	"github.com/essat/essat/internal/check"
	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/protocol"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/stats"
	"github.com/essat/essat/internal/topology"
	"github.com/essat/essat/internal/trace"
)

// Protocol selects the power-management protocol under test. The
// implemented protocols live in the internal/protocol registry; this
// package re-exports the names for convenience.
type Protocol = protocol.Protocol

// The five protocols of the paper's evaluation plus SYNC, plus T-MAC
// from the paper's related-work discussion (§2, reference [12]).
const (
	NTSSS = protocol.NTSSS
	STSSS = protocol.STSSS
	DTSSS = protocol.DTSSS
	SPAN  = protocol.SPAN
	PSM   = protocol.PSM
	SYNC  = protocol.SYNC
	TMAC  = protocol.TMAC
)

// AllProtocols lists every registered protocol in presentation order.
// (TMAC is excluded from the paper's figures, which predate it in this
// harness, but participates in smoke tests and examples.)
var AllProtocols = protocol.All()

// QueryStop deregisters a query at a given time, shrinking the workload.
type QueryStop struct {
	At    time.Duration
	Query query.ID
}

// setupAnnounce is the flooded in-band query setup request (energy and
// contention realism only; registration itself is direct).
type setupAnnounce struct {
	Query query.ID
}

// Failure kills a node at a given time (§4.3 robustness experiments).
type Failure struct {
	// At is when the node dies.
	At time.Duration
	// Node selects the victim. Negative means "a random live non-root,
	// non-leaf member", the interesting case for recovery.
	Node node.NodeID
}

// Dynamic is one configured fault/load injector: a registered kind from
// the internal/dynamics registry ("crash", "linkloss", "burst") plus
// its parameters.
type Dynamic struct {
	Kind string
	dynamics.Params
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Protocol Protocol
	Seed     int64

	// Topology: the paper uses 80 nodes, 500×500 m², 125 m range, tree
	// limited to 300 m around the central root.
	Topology    topology.Config
	TreeMaxDist float64
	// BFSTree selects idealized min-hop tree construction instead of the
	// default simulated setup flood (§5: the root floods a setup request;
	// contention makes flood trees deeper and less regular).
	BFSTree bool

	// Queries registered at every tree node before the run.
	Queries []query.Spec

	// Duration of the run; metrics are measured from MeasureFrom.
	Duration    time.Duration
	MeasureFrom time.Duration

	// RadioProfile selects the radio energy profile by registry name
	// ("paper", "cc1000", "cc2420"); empty keeps the paper's §4.1 cost
	// model. The profile supplies the transition latencies, the
	// per-state power draw behind every energy metric (battery
	// exhaustion, lifetime, the auditor's energy invariant), and Safe
	// Sleep's derived break-even time.
	RadioProfile string
	// RadioCfg overrides the profile's transition latencies when
	// non-zero; leave zero to use the profile's hardware numbers.
	RadioCfg radio.Config
	// SSBreakEven is the Safe Sleep tBE parameter; negative selects the
	// radio's intrinsic break-even time (Fig. 8/9 sweep it explicitly).
	SSBreakEven time.Duration
	// DisableSafeSleep turns SS off on every node (ablation: shaping
	// without sleeping).
	DisableSafeSleep bool

	// STSDeadline is the STS deadline D; zero selects D = query period
	// (the §5 configuration). Fig. 2 sweeps it.
	STSDeadline time.Duration
	// NoBuffering disables STS/DTS early-report buffering (ablation).
	NoBuffering bool

	// MAC and channel parameters; zero values select the defaults.
	MACCfg     mac.Config
	ChannelCfg phy.Config
	// Propagation selects the channel propagation model by registry name
	// ("disc", "shadowing", "dual-disc"); empty keeps the unit-disc
	// channel of the paper. PropagationParams passes the model's knobs
	// (shadowing "sigma"/"pathloss", dual-disc "inner"/"outer").
	Propagation       string
	PropagationParams map[string]float64
	// LossRate injects independent per-delivery loss.
	LossRate float64

	// QueryCfg tunes the agent; zero FailureThreshold disables failure
	// detection (the paper's main experiments have no failures).
	QueryCfg query.Config

	// Failures to inject.
	Failures []Failure

	// RecordSleepIntervals enables the Fig. 8 histogram collection.
	RecordSleepIntervals bool

	// TraceCapacity, when positive, records the last N structured events
	// (radio transitions, failure recovery) across all nodes.
	TraceCapacity int

	// BatteryJ, when positive, gives every non-root node a finite energy
	// budget in joules (MICA2-class power profile): a node whose radio
	// consumption exceeds it dies, exercising the paper's §4.2.1 network-
	// lifetime concern. The root (base station) is assumed powered.
	BatteryJ float64

	// Dissemination adds periodic root-to-leaves flows (the §3 extension).
	// Flow IDs must not collide with query IDs.
	Dissemination []core.DisseminationSpec

	// PeerFlows adds periodic peer-to-peer flows routed through the tree
	// (the §3 extension). Negative Src/Dst pick random distinct members.
	// Flow IDs must not collide with query or dissemination IDs.
	PeerFlows []core.P2PSpec

	// SetupSlot models the paper's in-band query setup (§4.1): for this
	// long before each query's phase, every ESSAT node holds its radio on
	// and the setup request is flooded over the air. Zero disables (the
	// default: queries pre-disseminated, like the routing tree).
	SetupSlot time.Duration

	// QueryStops deregister queries mid-run (workload adaptation).
	QueryStops []QueryStop

	// Dynamics lists fault/load injectors perturbing the run mid-flight:
	// node crash/recovery schedules, per-link loss ramps, traffic bursts.
	Dynamics []Dynamic

	// Audit enables the cross-layer invariant auditor (internal/check):
	// a pure observer validating physics and protocol rules every event
	// and producing the canonical trace digest in Result.Audit. Same-seed
	// runs are byte-identical with the auditor on or off.
	Audit bool

	// Sinks selects additional metric sinks from the stats registry
	// ("timeseries", "energy", "jsonl", ...) to observe the run; the
	// spec layer's results block compiles here. The root
	// latency/coverage recorder is always attached first, so an empty
	// list is the historical default. Sinks are pure observers — trace
	// digests and all legacy Result fields are identical with any
	// selection — and their records land in Result.Records in this
	// order.
	Sinks []SinkChoice

	// SyncCfg, PsmCfg and TmacCfg tune the baselines; zero values select
	// defaults.
	SyncCfg baseline.SyncConfig
	PsmCfg  baseline.PsmConfig
	TmacCfg baseline.TmacConfig
}

// SinkChoice names one metric sink plus its parameters (validated by
// the sink's builder at build time).
type SinkChoice struct {
	Name   string
	Params map[string]float64
}

// DefaultScenario returns the paper's experimental setup with the given
// protocol and seed (queries must still be added).
func DefaultScenario(p Protocol, seed int64) Scenario {
	return Scenario{
		Protocol:    p,
		Seed:        seed,
		Topology:    topology.DefaultConfig(),
		TreeMaxDist: 300,
		Duration:    200 * time.Second,
		MeasureFrom: 10 * time.Second,
		SSBreakEven: -1,
		MACCfg:      mac.DefaultConfig(),
		ChannelCfg:  phy.DefaultConfig(),
		QueryCfg:    query.Config{ReportBytes: 52, PhaseBytes: 4},
	}
}

// QueryClasses builds the paper's workload: perClass queries in each of
// three classes whose rates are in the ratio 6:3:2 (Q1 at baseRate Hz),
// each starting at a random phase in [0, phaseMax).
//
// Invalid arguments (non-positive baseRate, perClass, or phaseMax)
// yield an empty workload, which Build rejects with "no queries
// configured" — the imperative analogue of the spec layer's validation,
// and a returned error rather than a panic, so no request path can
// crash a hosting process.
func QueryClasses(rng *rand.Rand, baseRate float64, perClass int, phaseMax time.Duration) []query.Spec {
	if baseRate <= 0 || perClass <= 0 || phaseMax <= 0 {
		return nil
	}
	ratios := []float64{1, 2, 3} // periods scale as 1, 2, 3 → rates 6:3:2
	var specs []query.Spec
	id := query.ID(0)
	for class := 0; class < 3; class++ {
		period := time.Duration(ratios[class] / baseRate * float64(time.Second))
		for i := 0; i < perClass; i++ {
			phase := time.Duration(rng.Int63n(int64(phaseMax)))
			specs = append(specs, query.Spec{
				ID:     id,
				Period: period,
				Phase:  phase,
				Class:  class + 1,
			})
			id++
		}
	}
	return specs
}

// Result aggregates one run's metrics.
type Result struct {
	Protocol Protocol
	Seed     int64

	// DutyCycle is the mean duty cycle over tree members, in [0,1],
	// measured over [MeasureFrom, Duration].
	DutyCycle float64
	// DutyByRank maps node rank → mean duty cycle of nodes at that rank.
	DutyByRank map[int]float64

	// Latency summarizes per-interval query completion latency.
	Latency stats.DurationStats
	// LatencyByClass groups it per query class (1..3).
	LatencyByClass map[int]stats.DurationStats

	// Coverage is the mean number of source samples in the root's
	// aggregate per interval (tree size would be perfect).
	Coverage float64
	// TreeSize is the number of tree members; MaxRank is M.
	TreeSize int
	MaxRank  int

	// SleepIntervals collects every completed radio off-period across
	// members, when enabled.
	SleepIntervals []time.Duration

	// PhaseUpdateBitsPerReport is DTS's piggyback overhead amortized over
	// all scheduled reports (the paper reports < 1 bit/report).
	PhaseUpdateBitsPerReport float64
	// PhaseShifts counts DTS phase shifts across all nodes.
	PhaseShifts uint64

	// Channel and aggregate MAC statistics.
	Channel phy.Stats
	MACSent, MACFailed, MACRetries,
	Timeouts, PassThroughs uint64

	// Events is the number of simulator events executed.
	Events uint64

	// Trace holds the retained structured events when TraceCapacity > 0.
	Trace []trace.Event

	// DisseminationDelivery is the fraction of expected downstream
	// command receptions that arrived (non-root members × intervals),
	// and DisseminationLatency the mean release→reception delay.
	DisseminationDelivery float64
	DisseminationLatency  time.Duration

	// P2PDelivery is the fraction of released peer messages consumed at
	// their destinations; P2PLatency the mean release→consumption delay.
	P2PDelivery float64
	P2PLatency  time.Duration

	// FirstDeath is when the first node exhausted its battery (0 = none
	// died); BatteryDeaths counts nodes that died of exhaustion.
	FirstDeath    time.Duration
	BatteryDeaths int

	// Audit is the invariant auditor's report (trace digest, audited
	// event count, violations); nil unless Scenario.Audit was set.
	Audit *check.Summary

	// Records holds the structured outputs of the metric sinks selected
	// by Scenario.Sinks (the spec's results block), in configuration
	// order. Empty on default runs: the always-on root recorder feeds
	// Latency/LatencyByClass/Coverage instead of emitting a record.
	Records []stats.Record

	// EnergyMean and EnergyMax are per-node radio energy over the
	// measurement window in joules, under a MICA2-class power profile.
	// NetworkLifetime extrapolates the worst node's draw against a 20 kJ
	// battery — the paper's "nodes close to the root run out of energy
	// faster" concern, quantified.
	EnergyMean, EnergyMax float64
	NetworkLifetime       time.Duration
}

// Sim is one fully built scenario, paused at time zero: engine,
// topology, routing tree, channel, and per-node protocol stacks wired,
// with the workload, failure injections, and measurement snapshots
// already in the event queue. Callers may inspect or instrument the
// exported pieces before Simulate.
type Sim struct {
	Scenario Scenario
	Eng      *sim.Engine
	Topo     *topology.Topology
	Tree     *routing.Tree
	Channel  *phy.Channel
	Nodes    map[node.NodeID]*node.Node

	sink      *stats.RootSink
	fan       *stats.Fanout
	tracer    *trace.Tracer
	auditor   *check.Auditor
	profile   radio.PowerProfile
	activeAt0 []time.Duration
	energyAt0 []float64

	// firstDeath and batteryDeaths account battery exhaustion.
	firstDeath    time.Duration
	batteryDeaths int
}

// builder is one build in progress: the Sim being assembled plus the
// resolved models the stages hand to each other.
type builder struct {
	*Sim
	arena  *Arena
	proto  protocol.Builder
	prop   phy.Propagation
	rcfg   radio.Config
	chCfg  phy.Config
	macCfg mac.Config
	qCfg   query.Config
	params protocol.Params

	root node.NodeID
	// members is the build-time member list in ID order, computed once:
	// no stage mutates the tree, so every stage walks this one list.
	members []node.NodeID
}

// build runs the build stages in order. The order is load-bearing: the
// engine rng is drawn for placement (deploy), then peer-flow endpoints
// and failure victims (workload), and node construction and start order
// fix the event sequence numbers.
func build(sc Scenario, a *Arena) (*Sim, error) {
	b := &builder{Sim: &Sim{Scenario: sc}, arena: a}
	for _, stage := range []func() error{b.resolveModels, b.deploy, b.channel, b.observers, b.stacks, b.workload} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return b.Sim, nil
}

// resolveModels validates the scenario and resolves every registry name
// and defaulted config: protocol, propagation model, energy profile,
// radio, channel, MAC, query, and protocol parameters.
func (b *builder) resolveModels() error {
	sc := &b.Scenario
	if len(sc.Queries) == 0 {
		return fmt.Errorf("experiment: no queries configured")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("experiment: non-positive duration %v", sc.Duration)
	}
	var ok bool
	if b.proto, ok = protocol.Lookup(sc.Protocol); !ok {
		return fmt.Errorf("experiment: unknown protocol %q (registered: %v)", sc.Protocol, protocol.All())
	}
	// The propagation model shapes the candidate graph and both channels
	// (setup flood and run), the energy profile everything that meters
	// joules.
	prop, err := phy.NewPropagation(sc.Propagation, sc.PropagationParams)
	if err != nil {
		return err
	}
	if sc.ChannelCfg.Propagation != nil {
		// An explicitly wired model (imperative API) wins over the name.
		prop = sc.ChannelCfg.Propagation
	}
	b.prop = prop
	profName := sc.RadioProfile
	if profName == "" {
		profName = radio.Paper
	}
	prof, ok := radio.LookupProfile(profName)
	if !ok {
		return fmt.Errorf("experiment: unknown radio profile %q (registered: %v)", sc.RadioProfile, radio.ProfileNames())
	}
	b.profile = prof.Power
	b.rcfg = sc.RadioCfg
	if b.rcfg == (radio.Config{}) {
		b.rcfg = prof.Config()
	}

	// Gray-zone models deliver past the nominal range: widen the
	// candidate-neighbor graph to the model's conservative maximum.
	sc.Topology.NeighborRange = prop.MaxRange(sc.Topology.Range)

	b.chCfg = sc.ChannelCfg
	if b.chCfg.BitRate == 0 {
		b.chCfg = phy.DefaultConfig()
	}
	b.chCfg.LossRate = sc.LossRate
	b.chCfg.Propagation = prop

	// Validate the MAC and query configs after defaulting: the
	// constructors only panic on invalid configs (a backstop against
	// imperative misuse), and a malformed scenario must surface as a
	// returned build error, never a crashed worker.
	b.macCfg = sc.MACCfg
	if b.macCfg.SlotTime == 0 {
		b.macCfg = mac.DefaultConfig()
	}
	if err := b.macCfg.Validate(); err != nil {
		return err
	}
	b.qCfg = sc.QueryCfg
	if b.qCfg.ReportBytes == 0 {
		b.qCfg.ReportBytes = 52
		b.qCfg.PhaseBytes = 4
	}
	if err := b.qCfg.Validate(); err != nil {
		return err
	}

	b.params = protocol.Params{
		SSBreakEven:      sc.SSBreakEven,
		DisableSafeSleep: sc.DisableSafeSleep,
		STSDeadline:      sc.STSDeadline,
		NoBuffering:      sc.NoBuffering,
		SyncCfg:          sc.SyncCfg,
		PsmCfg:           sc.PsmCfg,
		TmacCfg:          sc.TmacCfg,
	}
	// Safe Sleep's intrinsic tBE comes from the energy profile (the
	// paper's equal-power assumption makes it tON+tOFF; radios with
	// cheaper transitions break even sooner). An explicit RadioCfg keeps
	// the historical radio-intrinsic fallback.
	if b.params.SSBreakEven < 0 && sc.RadioCfg == (radio.Config{}) {
		b.params.SSBreakEven = prof.BreakEven()
	}
	return nil
}

// deploy places the topology and builds the routing tree. It takes the
// arena's reusable engine first, because that engine carries all
// build-time randomness and placement draws first.
//
// Placement and tree construction depend only on the deployment key
// fields (seed, topology config, tree policy, propagation model), so an
// arena with a cache can reuse a previous build's topology and tree
// template. The engine's rng stream must stay identical either way: on a
// hit, Replay burns exactly the draws the generator would have consumed.
// Caching is skipped when an imperative ChannelCfg.Propagation override
// is wired in — that model has no name to key on.
func (b *builder) deploy() (err error) {
	sc := &b.Scenario
	b.Eng = b.arena.engine(sc.Seed)
	cache := b.arena.deployCache()
	if cache != nil && sc.ChannelCfg.Propagation != nil {
		cache = nil
	}
	var key string
	if cache != nil {
		key = deployKey(*sc)
		if d, ok := cache.lookup(key); ok {
			if err := topology.Replay(b.Eng.Rand(), sc.Topology); err != nil {
				return err
			}
			b.Topo, b.Tree = d.topo, d.tree.Clone()
		}
	}
	if b.Topo == nil {
		if b.Topo, err = topology.New(b.Eng.Rand(), sc.Topology); err != nil {
			return err
		}
	}
	b.root = b.Topo.CentralNode()
	if b.Tree != nil {
		return nil
	}
	if sc.BFSTree {
		b.Tree, err = routing.BuildBFS(b.Topo, b.root, sc.TreeMaxDist)
	} else {
		fcfg := routing.DefaultFloodConfig()
		fcfg.MaxDist = sc.TreeMaxDist
		fcfg.ChannelCfg.Propagation = b.prop
		if !phy.IsDisc(b.prop) {
			// Probabilistic links can strand first-round stragglers;
			// extra flood rounds keep tree construction converging.
			fcfg.Rounds = 3
		}
		b.Tree, err = routing.BuildFlood(sc.Seed+1, b.Topo, b.root, fcfg)
	}
	if err != nil {
		return err
	}
	if cache != nil {
		// Store a pristine template: the tree handed to this run is about
		// to be mutated by failures and re-parenting.
		cache.store(key, &deployment{topo: b.Topo, tree: b.Tree.Clone()})
	}
	return nil
}

// channel opens the run's channel over the shared topology and fixes
// the member list every later stage walks.
func (b *builder) channel() (err error) {
	if b.Channel, err = phy.NewChannel(b.Eng, b.Topo, b.chCfg); err != nil {
		return err
	}
	b.members = b.Tree.Members()
	return nil
}

// observers attaches the pure observers: the metric sinks, the tracer,
// and the invariant auditor. The run is byte-identical with any
// selection of them.
func (b *builder) observers() error {
	sc := &b.Scenario
	// The root recorder comes off the sink registry like any other sink
	// (proving the port), extra sinks follow in configuration order, and
	// a fanout dispatches every hook to all of them.
	sinkCfg := stats.SinkConfig{
		Queries:     sc.Queries,
		Duration:    sc.Duration,
		MeasureFrom: sc.MeasureFrom,
		Nodes:       b.Topo.NumNodes(),
	}
	rootObs, err := stats.NewSink(stats.SinkRoot, sinkCfg)
	if err != nil {
		return err
	}
	b.sink = rootObs.(*stats.RootSink)
	observers := []stats.Sink{b.sink}
	for _, choice := range sc.Sinks {
		if choice.Name == stats.SinkRoot {
			continue // always attached first
		}
		cfg := sinkCfg
		cfg.Params = choice.Params
		extra, err := stats.NewSink(choice.Name, cfg)
		if err != nil {
			return err
		}
		observers = append(observers, extra)
	}
	b.fan = stats.NewFanout(observers...)

	// The per-node hooks installed by stacks and workload are nil (and
	// free) when the tracer and the auditor are off.
	if sc.TraceCapacity > 0 {
		b.tracer = trace.New(sc.TraceCapacity, b.Eng.Now)
	}
	if sc.Audit {
		b.auditor = check.New(b.Eng.Now)
		b.Eng.SetObserver(b.auditor)
		b.Channel.SetObserver(b.auditor)
		for _, q := range sc.Queries {
			b.auditor.RegisterQuery(q)
		}
	}
	return nil
}

// stacks wires a node — radio, MAC, and the protocol stack from the
// registry — onto every tree member in member order, then a dark station
// onto every other node so the channel's station table is complete.
func (b *builder) stacks() error {
	sc := &b.Scenario
	b.Nodes = make(map[node.NodeID]*node.Node, len(b.members))
	for _, id := range b.members {
		n := node.New(b.Eng, id, b.Tree, b.Channel, b.rcfg, b.macCfg)
		if sc.RecordSleepIntervals {
			n.Radio.RecordSleepIntervals()
		}
		n.SetTracer(b.tracer)
		var s query.Sink
		if id == b.root {
			s = b.fan
			if b.auditor != nil {
				s = b.auditor.WrapSink(s)
			}
		}
		if b.auditor != nil {
			n.MAC.SetObserver(b.auditor)
			b.auditor.WatchRadio(id, n.Radio, b.profile)
		}
		if b.fan.WantsRadio() {
			id, fan, eng := id, b.fan, b.Eng
			n.Radio.Subscribe(func(old, new radio.State) {
				fan.RadioChanged(int(id), old, new, eng.Now())
			})
		}
		if err := b.proto.Build(&protocol.BuildContext{
			Eng:      b.Eng,
			Node:     n,
			Tree:     b.Tree,
			Sink:     s,
			QueryCfg: b.qCfg,
			Queries:  len(sc.Queries),
			Params:   b.params,
		}); err != nil {
			return err
		}
		b.Nodes[id] = n
	}
	for i := 0; i < b.Topo.NumNodes(); i++ {
		id := node.NodeID(i)
		if _, ok := b.Nodes[id]; ok {
			continue
		}
		r := radio.New(b.Eng, b.rcfg)
		// Constructing the MAC attaches the station to the channel.
		mac.New(b.Eng, b.Channel, id, r, b.macCfg, discard{})
		r.TurnOff()
	}
	return nil
}

// workload schedules the run's activity on top of the wired stacks:
// queries and their setup slots, stops, extension flows, node start,
// failures, dynamics, battery polling, and the warm-up snapshot.
func (b *builder) workload() error {
	sc := &b.Scenario
	for _, spec := range sc.Queries {
		for _, id := range b.members {
			if err := b.Nodes[id].Agent.Register(spec); err != nil {
				return err
			}
		}
		if sc.SetupSlot > 0 {
			scheduleSetupSlot(b.Eng, b.members, b.Nodes, spec, sc.SetupSlot)
		}
	}
	// Stops sweep the build-time member list, not tree.Members() at stop
	// time: a node the failure detector has (perhaps falsely) marked dead
	// — or one the dynamics layer crashed — must still forget the query,
	// or it resumes reporting it after recovery. Only permanently dead
	// nodes (channel-disabled) are skipped.
	for _, stop := range sc.QueryStops {
		stop, members, ch, nodes := stop, b.members, b.Channel, b.Nodes
		b.Eng.Schedule(stop.At, func() {
			for _, id := range members {
				if !ch.Disabled(id) {
					nodes[id].Agent.Deregister(stop.Query)
				}
			}
		})
	}
	if err := b.flows(); err != nil {
		return err
	}
	if b.auditor != nil {
		// Safe Sleep schedulers exist only after the protocol builders ran.
		for _, id := range b.members {
			if ss := b.Nodes[id].SS; ss != nil {
				ss.SetObserver(id, b.auditor)
			}
		}
	}
	// Start in member (ID) order: map iteration order would vary the seq
	// tie-break of same-instant events and break run determinism.
	for _, id := range b.members {
		b.Nodes[id].Start()
	}
	if err := b.faults(); err != nil {
		return err
	}
	b.meter()
	return nil
}

// flows registers the §3 extension flows: peer-to-peer flows (drawing
// random endpoints from the engine rng) and downstream dissemination.
func (b *builder) flows() error {
	sc, members := &b.Scenario, b.members
	if len(sc.PeerFlows) > 0 {
		for _, id := range members {
			b.Nodes[id].InstallP2P(nil)
		}
		// Resolve random endpoints into this build's own copy: the
		// caller's slice must stay reusable for an identical rerun.
		sc.PeerFlows = append([]core.P2PSpec(nil), sc.PeerFlows...)
		for i := range sc.PeerFlows {
			fl := &sc.PeerFlows[i]
			if fl.Src < 0 || fl.Dst < 0 {
				fl.Src = members[b.Eng.Rand().Intn(len(members))]
				for {
					fl.Dst = members[b.Eng.Rand().Intn(len(members))]
					if fl.Dst != fl.Src {
						break
					}
				}
			}
			path := b.Tree.Path(fl.Src, fl.Dst)
			if path == nil {
				return fmt.Errorf("experiment: no path for peer flow %d (%d→%d)", fl.ID, fl.Src, fl.Dst)
			}
			for _, id := range members {
				if err := b.Nodes[id].Peer.Register(*fl, path); err != nil {
					return err
				}
			}
		}
	}
	if len(sc.Dissemination) > 0 {
		for _, id := range members {
			b.Nodes[id].InstallDisseminator(nil)
		}
		for _, ds := range sc.Dissemination {
			for _, q := range sc.Queries {
				if q.ID == ds.ID {
					return fmt.Errorf("experiment: dissemination flow %d collides with a query ID", ds.ID)
				}
			}
			for _, id := range members {
				if err := b.Nodes[id].Diss.Register(ds); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// faults schedules the configured failures (random victims drawn from
// the engine rng) and builds every dynamics injector from the registry.
// Injector choices draw from private seed-derived streams, so they
// neither consume the engine's rng nor perturb anything before the first
// injected event fires.
func (b *builder) faults() error {
	sc := &b.Scenario
	for _, f := range sc.Failures {
		victim := f.Node
		if victim < 0 {
			victim = pickVictim(b.Eng.Rand(), b.Tree, b.members)
		}
		if victim == routing.None || victim == b.root {
			continue
		}
		v, fch, nodes := victim, b.Channel, b.Nodes
		b.Eng.Schedule(f.At, func() {
			// Guard on permanent disablement, not Killed(): a node the
			// dynamics layer has temporarily crashed still reads as killed,
			// but a configured failure must make its death permanent (the
			// channel refuses to Resume a Disabled station).
			if n, ok := nodes[v]; ok && !fch.Disabled(v) {
				n.Kill()
				fch.Disable(v)
			}
		})
	}
	if len(sc.Dynamics) == 0 {
		return nil
	}
	h := &dynHost{
		eng:     b.Eng,
		tree:    b.Tree,
		ch:      b.Channel,
		topo:    b.Topo,
		nodes:   b.Nodes,
		nodeIDs: b.members,
		auditor: b.auditor,
		crashed: make(map[node.NodeID]bool),
	}
	for i, d := range sc.Dynamics {
		inj, err := dynamics.Build(d.Kind, d.Params, sc.Seed, i)
		if err != nil {
			return err
		}
		if err := inj.Schedule(h); err != nil {
			return err
		}
	}
	return nil
}

// meter schedules the accounting loops: battery exhaustion (one poll
// per simulated second) and the radio snapshot at MeasureFrom that
// excludes warm-up.
func (b *builder) meter() {
	sc, sm, prof, root := &b.Scenario, b.Sim, b.profile, b.root
	members, e, ch, nodes := b.members, b.Eng, b.Channel, b.Nodes
	if sc.BatteryJ > 0 {
		budget := sc.BatteryJ
		var check func()
		check = func() {
			for _, id := range members {
				n := nodes[id]
				if id == root || n.Killed() {
					continue
				}
				if n.Radio.Energy(prof) >= budget {
					if sm.firstDeath == 0 {
						sm.firstDeath = e.Now()
					}
					sm.batteryDeaths++
					n.Kill()
					ch.Disable(id)
				}
			}
			e.After(time.Second, check)
		}
		e.After(time.Second, check)
	}

	sm.activeAt0 = make([]time.Duration, b.Topo.NumNodes())
	sm.energyAt0 = make([]float64, b.Topo.NumNodes())
	e.Schedule(sc.MeasureFrom, func() {
		for _, id := range members {
			n := nodes[id]
			sm.activeAt0[id] = n.Radio.ActiveTime()
			sm.energyAt0[id] = n.Radio.Energy(prof)
		}
	})
}

// Simulate drains the event queue up to the scenario's duration. It
// must run exactly once, between Build and Collect.
func (s *Sim) Simulate() { _ = s.SimulateContext(context.Background(), Budget{}) }

// Collect aggregates the run's metrics into a Result. Call it after
// Simulate.
func (s *Sim) Collect() *Result {
	res := &Result{
		Protocol:       s.Scenario.Protocol,
		Seed:           s.Scenario.Seed,
		DutyByRank:     make(map[int]float64),
		LatencyByClass: make(map[int]stats.DurationStats),
		TreeSize:       s.Tree.Size(),
		MaxRank:        s.Tree.MaxRank(),
		Events:         s.Eng.Processed(),
		Channel:        s.Channel.Stats(),
		Trace:          s.tracer.Events(),
		FirstDeath:     s.firstDeath,
		BatteryDeaths:  s.batteryDeaths,
	}
	s.collectNodes(res)
	s.collectFlows(res)
	countRun(s.Scenario, res.Events)
	if s.auditor != nil {
		res.Audit = s.auditor.Summary()
	}
	return res
}

// dynHost adapts the built simulation to the dynamics.Host surface.
type dynHost struct {
	eng   *sim.Engine
	tree  *routing.Tree
	ch    *phy.Channel
	topo  *topology.Topology
	nodes map[node.NodeID]*node.Node
	// nodeIDs is the build-time member list in ID order — unlike
	// tree.Members(), it keeps nodes the failure detector later marks
	// dead, which RemoveQuery must still reach.
	nodeIDs []node.NodeID
	auditor *check.Auditor
	// crashed tracks nodes this layer took down, so Recover never
	// resurrects a node killed by other means (failure injection,
	// battery exhaustion).
	crashed map[node.NodeID]bool
}

var _ dynamics.Host = (*dynHost)(nil)

func (h *dynHost) Eng() *sim.Engine                               { return h.eng }
func (h *dynHost) Members() []topology.NodeID                     { return h.tree.Members() }
func (h *dynHost) Root() topology.NodeID                          { return h.tree.Root() }
func (h *dynHost) Neighbors(id topology.NodeID) []topology.NodeID { return h.topo.Neighbors(id) }

func (h *dynHost) Crash(id topology.NodeID) {
	n := h.nodes[id]
	if n == nil || n.Killed() || id == h.tree.Root() {
		return
	}
	n.Crash()
	h.ch.Suspend(id)
	h.crashed[id] = true
}

func (h *dynHost) Recover(id topology.NodeID) {
	n := h.nodes[id]
	if n == nil || !h.crashed[id] {
		return
	}
	delete(h.crashed, id)
	if h.ch.Disabled(id) {
		// Permanently failed (failure injection, battery exhaustion)
		// while it was down: the crash outage does not end in recovery.
		return
	}
	h.ch.Resume(id)
	n.Recover()
}

func (h *dynHost) SetLinkLoss(a, b topology.NodeID, p float64) {
	// The injector validated its peak < 1 at build time, so the only
	// error SetLinkLoss can return is unreachable from here.
	_ = h.ch.SetLinkLoss(a, b, p)
}

func (h *dynHost) AddQuery(spec query.Spec) error {
	if h.auditor != nil {
		h.auditor.RegisterQuery(spec)
	}
	for _, id := range h.nodeIDs {
		n := h.nodes[id]
		if n.Killed() {
			continue // offline during setup: it misses the query
		}
		if err := n.Agent.Register(spec); err != nil {
			return err
		}
	}
	return nil
}

func (h *dynHost) RemoveQuery(id query.ID) {
	// Deregister everywhere, crashed nodes included: a node recovering
	// after the burst ended must not keep producing burst reports.
	for _, nid := range h.nodeIDs {
		h.nodes[nid].Agent.Deregister(id)
	}
}

// scheduleSetupSlot arranges the paper's setup-slot behavior for one
// query: all ESSAT nodes hold their radios on during
// [phase−slot, phase], and the setup request floods down the tree on the
// air (each member rebroadcasts once, jittered inside the slot).
func scheduleSetupSlot(eng *sim.Engine, members []node.NodeID, nodes map[node.NodeID]*node.Node, spec query.Spec, slot time.Duration) {
	start := spec.Phase - slot
	if start < 0 {
		start = 0
	}
	eng.Schedule(start, func() {
		for _, id := range members {
			n := nodes[id]
			if n.Killed() || n.SS == nil {
				continue
			}
			n.SS.HoldAwake(spec.Phase)
		}
		// In-band flood: every member rebroadcasts the request once at a
		// random offset inside the first half of the slot.
		for _, id := range members {
			n := nodes[id]
			if n.Killed() {
				continue
			}
			jitter := time.Duration(eng.Rand().Int63n(int64(slot/2) + 1))
			eng.Schedule(eng.Now()+jitter, func() {
				if !n.Killed() && n.Radio.IsOn() {
					n.MAC.Send(phy.Broadcast, setupAnnounce{Query: spec.ID}, 14, nil)
				}
			})
		}
	})
}

// discard is the upper layer for dark (non-member) nodes.
type discard struct{}

func (discard) Deliver(phy.NodeID, any, int) {}

// pickVictim chooses a random live non-root node, preferring non-leaves
// (whose failure exercises both recovery paths).
func pickVictim(rng *rand.Rand, tree *routing.Tree, members []node.NodeID) node.NodeID {
	var inner, leaves []node.NodeID
	for _, id := range members {
		if id == tree.Root() {
			continue
		}
		if tree.IsLeaf(id) {
			leaves = append(leaves, id)
		} else {
			inner = append(inner, id)
		}
	}
	if len(inner) > 0 {
		return inner[rng.Intn(len(inner))]
	}
	if len(leaves) > 0 {
		return leaves[rng.Intn(len(leaves))]
	}
	return routing.None
}

// collectNodes folds the per-node radio, agent, and MAC counters into
// res, feeds each node's summary to the sinks, and takes the root
// recorder's latency and coverage and the sinks' records.
func (s *Sim) collectNodes(res *Result) {
	sc, tree := &s.Scenario, s.Tree
	window := float64(sc.Duration - sc.MeasureFrom)
	var duty, energy stats.Welford
	dutyRank := make(map[int]*stats.Welford)
	var reports, phaseUpdates uint64
	// Iterate in ID order so float accumulation is deterministic.
	for _, id := range tree.Members() {
		n, ok := s.Nodes[id]
		if !ok || n.Killed() {
			continue
		}
		active := float64(n.Radio.ActiveTime() - s.activeAt0[id])
		dc := active / window
		duty.Add(dc)
		e := n.Radio.Energy(s.profile) - s.energyAt0[id]
		energy.Add(e)
		if e > res.EnergyMax {
			res.EnergyMax = e
		}
		r := tree.Rank(id)
		if dutyRank[r] == nil {
			dutyRank[r] = &stats.Welford{}
		}
		dutyRank[r].Add(dc)

		ast := n.Agent.Stats()
		reports += ast.ReportsSent
		phaseUpdates += ast.PhaseUpdatesSent
		res.Timeouts += ast.Timeouts
		res.PassThroughs += ast.PassThroughsSent

		mst := n.MAC.Stats()
		res.MACSent += mst.Sent
		res.MACFailed += mst.Failed
		res.MACRetries += mst.Retries

		if sc.RecordSleepIntervals {
			res.SleepIntervals = append(res.SleepIntervals, n.Radio.SleepIntervals()...)
		}
		if dts, ok := n.Agent.Shaper().(*core.DTS); ok {
			res.PhaseShifts += dts.Stats().PhaseShifts
		}

		s.fan.NodeDone(stats.NodeSummary{Node: int(id), Rank: r, Duty: dc, EnergyJ: e})
	}
	res.DutyCycle = duty.Mean()
	for r, w := range dutyRank {
		res.DutyByRank[r] = w.Mean()
	}
	if reports > 0 {
		bits := float64(phaseUpdates) * float64(qPhaseBytes(*sc)) * 8
		res.PhaseUpdateBitsPerReport = bits / float64(reports)
	}

	res.Latency = stats.SummarizeDurations(s.sink.Latencies())
	for class, ls := range s.sink.LatencyByClass() {
		res.LatencyByClass[class] = stats.SummarizeDurations(ls)
	}
	res.Coverage = s.sink.MeanCoverage()
	res.Records = s.fan.Records(stats.RunMeta{
		Protocol:    string(sc.Protocol),
		Seed:        sc.Seed,
		Duration:    sc.Duration,
		MeasureFrom: sc.MeasureFrom,
		TreeSize:    tree.Size(),
	})
	res.EnergyMean = energy.Mean()
	if res.EnergyMax > 0 {
		// 20 kJ ≈ a pair of AA cells' usable energy at sensor loads. The
		// network lives until its hungriest node (typically near the root)
		// drains, at the draw observed in the measurement window.
		const batteryJ = 20_000.0
		drawWatts := res.EnergyMax / time.Duration(window).Seconds()
		res.NetworkLifetime = time.Duration(batteryJ / drawWatts * float64(time.Second))
	}
}

// collectFlows computes the §3 extension flows' delivery and latency.
func (s *Sim) collectFlows(res *Result) {
	sc, tree := &s.Scenario, s.Tree
	if len(sc.PeerFlows) > 0 {
		var consumed, originated uint64
		var latSum time.Duration
		for _, id := range tree.Members() {
			n, ok := s.Nodes[id]
			if !ok || n.Peer == nil {
				continue
			}
			st := n.Peer.Stats()
			consumed += st.Consumed
			originated += st.Originated
			latSum += st.LatencySum
		}
		if originated > 0 {
			res.P2PDelivery = float64(consumed) / float64(originated)
		}
		if consumed > 0 {
			res.P2PLatency = latSum / time.Duration(consumed)
		}
	}
	if len(sc.Dissemination) > 0 {
		var received uint64
		var latSum time.Duration
		var expected uint64
		for _, id := range tree.Members() {
			n, ok := s.Nodes[id]
			if !ok || n.Killed() || n.Diss == nil {
				continue
			}
			ds := n.Diss.Stats()
			received += ds.Received
			latSum += ds.LatencySum
			if id != tree.Root() {
				for _, fl := range sc.Dissemination {
					if fl.Phase >= sc.Duration {
						continue
					}
					// Commands are released at Phase + k·Period < Duration.
					intervals := int64((sc.Duration-fl.Phase-1)/fl.Period) + 1
					expected += uint64(intervals)
				}
			}
		}
		if expected > 0 {
			res.DisseminationDelivery = float64(received) / float64(expected)
		}
		if received > 0 {
			res.DisseminationLatency = latSum / time.Duration(received)
		}
	}
}

func qPhaseBytes(sc Scenario) int {
	if sc.QueryCfg.PhaseBytes > 0 {
		return sc.QueryCfg.PhaseBytes
	}
	return 4
}
