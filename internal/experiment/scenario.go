// Package experiment builds and runs the paper's evaluation scenarios
// (§5): 80 nodes in 500×500 m², three query classes with rate ratio
// 6:3:2, five protocols, 200-second runs — and regenerates every
// figure of the paper plus the ablation studies from DESIGN.md, each
// declared as a grid that one runner executes (figures.go).
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/check"
	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/dynamics"
	"github.com/essat/essat/internal/geom"
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
// implemented protocols live in the internal/protocol table; this
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

// AllProtocols lists every protocol in presentation order.
// (TMAC is excluded from the paper's figures, which predate it in this
// harness, but participates in smoke tests and examples.)
var AllProtocols = protocol.All()

// setupAnnounce is the flooded in-band query setup request (energy and
// contention realism only; registration itself is direct).
type setupAnnounce struct {
	Query query.ID
}

// Dynamic is one row of the run's perturbation table: a kind listed by
// internal/dynamics ("fail", "stop", "crash", "linkloss", "burst") plus
// its parameters.
type Dynamic = dynamics.Row

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

	// RadioProfile selects the radio energy profile by name
	// ("paper", "cc1000", "cc2420"); empty keeps the paper's §4.1 cost
	// model. The profile supplies the transition latencies, the
	// per-state power draw behind every energy metric (battery
	// exhaustion, lifetime, the auditor's energy invariant), and Safe
	// Sleep's derived break-even time.
	RadioProfile string
	// RadioCfg, when non-nil, replaces the profile's transition
	// latencies; nil keeps the profile's hardware numbers. Fig. 8 sets
	// &radio.Config{} for instantaneous transitions.
	RadioCfg *radio.Config
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

	// Propagation selects the channel propagation model by name
	// ("disc", "shadowing", "dual-disc"); empty keeps the unit-disc
	// channel of the paper. PropagationParams passes the model's knobs
	// (shadowing "sigma"/"pathloss", dual-disc "inner"/"outer").
	Propagation       string
	PropagationParams map[string]float64
	// LossRate injects independent per-delivery loss.
	LossRate float64

	// FailureThreshold is how many consecutive missed intervals or
	// failed sends make a node declare its neighbor failed (§4.3); zero
	// disables failure detection (the paper's main experiments have no
	// failures).
	FailureThreshold int

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

	// Dynamics lists, in scheduling order, every perturbation of the
	// run: permanent failures (§4.3), query stops (workload adaptation),
	// node crash/recovery schedules, per-link loss ramps, traffic bursts.
	Dynamics []Dynamic

	// Audit enables the cross-layer invariant auditor (internal/check):
	// a pure observer validating physics and protocol rules every event
	// and producing the canonical trace digest in Result.Audit. Same-seed
	// runs are byte-identical with the auditor on or off.
	Audit bool

	// Sinks selects additional metric sinks from the stats table
	// ("timeseries", "energy", "jsonl", ...) to observe the run; the
	// spec layer's results block compiles here. The root
	// latency/coverage recorder is always attached first, so an empty
	// list is the historical default. Sinks are pure observers — trace
	// digests and all legacy Result fields are identical with any
	// selection — and their records land in Result.Records in this
	// order.
	Sinks []SinkChoice
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
	// battery (stats.LifetimeBatteryJ) — the paper's "nodes close to the
	// root run out of energy faster" concern, quantified.
	EnergyMean, EnergyMax float64
	NetworkLifetime       time.Duration
}

// Sim is one fully built scenario, paused at time zero: engine,
// topology, routing tree, channel, and per-node protocol stacks wired,
// with the workload, perturbations, and measurement snapshots
// already in the event queue. Callers may inspect or instrument the
// exported pieces before Simulate.
type Sim struct {
	Scenario Scenario
	Eng      *sim.Engine
	Topo     *topology.Topology
	Tree     *routing.Tree
	Channel  *phy.Channel
	// Nodes holds each member's stack by node ID; non-members are nil.
	Nodes []*node.Node

	obs       observer // every run-level observer
	profile   radio.PowerProfile
	activeAt0 []time.Duration
	energyAt0 []float64

	root node.NodeID
	// members is the build-time member list in ID order, computed once:
	// no build stage mutates the tree, so every stage walks this one
	// list, and Collect walks its still-live entries.
	members []node.NodeID

	// firstDeath and batteryDeaths account battery exhaustion.
	firstDeath    time.Duration
	batteryDeaths int

	// collected is the Result of the first Collect.
	collected *Result
}

// builder is one build in progress: the Sim being assembled plus the
// resolved models the stages hand to each other.
type builder struct {
	*Sim
	arena  *Arena
	proto  protocol.Builder
	prop   phy.Propagation
	power  radio.PowerProfile
	rcfg   radio.Config
	chCfg  phy.Config
	qCfg   query.Config
	params protocol.Params
}

// build takes the arena's engine, reset to the scenario's seed, and runs
// the build stages in order; a nil arena is a private one, so every
// build, one-shot or warm, takes its memory the same way. The Sim comes
// from the engine's arena, like everything the stages build, so it is
// valid until the arena's next build; it is taken after deploy,
// because a setup flood rewinds the arena. The stage order is load-bearing: the engine rng is drawn for
// placement (deploy), then peer-flow endpoints and random failure
// victims (workload), and node construction and start order fix the
// event sequence numbers.
func build(sc Scenario, a *Arena) (*Sim, error) {
	if a == nil {
		a = &Arena{}
	}
	eng := a.engine(sc.Seed)
	b := builder{arena: a}
	if err := b.resolveModels(&sc); err != nil {
		return nil, err
	}
	topo, tree, err := b.deploy(eng, &sc)
	if err != nil {
		return nil, err
	}
	b.Sim = sim.ArenaGrab[Sim](eng, "experiment.sim")
	*b.Sim = Sim{Scenario: sc, Eng: eng, Topo: topo, Tree: tree, profile: b.power, root: tree.Root()}
	if err := b.channel(); err != nil {
		return nil, err
	}
	if err := b.observers(); err != nil {
		return nil, err
	}
	b.stacks()
	if err := b.workload(); err != nil {
		return nil, err
	}
	return b.Sim, nil
}

// resolveModels validates the scenario and resolves every model name
// and derived config: protocol, propagation model, energy profile,
// radio, channel, query, and protocol parameters. It sets the
// topology's candidate radius in sc.
func (b *builder) resolveModels(sc *Scenario) error {
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
	b.prop = prop
	profName := sc.RadioProfile
	if profName == "" {
		profName = radio.Paper
	}
	prof, ok := radio.LookupProfile(profName)
	if !ok {
		return fmt.Errorf("experiment: unknown radio profile %q (registered: %v)", sc.RadioProfile, radio.ProfileNames())
	}
	b.power = prof.Power
	b.rcfg = prof.Config()
	if sc.RadioCfg != nil {
		b.rcfg = *sc.RadioCfg
	}

	// Gray-zone models deliver past the nominal range: widen the
	// candidate-neighbor graph to the model's conservative maximum.
	sc.Topology.NeighborRange = prop.MaxRange(sc.Topology.Range)

	b.chCfg = phy.Config{LossRate: sc.LossRate, Propagation: prop}

	// The failure threshold arrives from spec input: validate it here,
	// since the agent constructor only panics on an invalid config (a
	// backstop against imperative misuse), and a malformed scenario must
	// surface as a returned build error, never a crashed worker.
	b.qCfg = query.Config{FailureThreshold: sc.FailureThreshold}
	if err := b.qCfg.Validate(); err != nil {
		return err
	}

	b.params = protocol.Params{
		SSBreakEven:      sc.SSBreakEven,
		DisableSafeSleep: sc.DisableSafeSleep,
		STSDeadline:      sc.STSDeadline,
		NoBuffering:      sc.NoBuffering,
	}
	// Safe Sleep's intrinsic tBE comes from the energy profile (the
	// paper's equal-power assumption makes it tON+tOFF; radios with
	// cheaper transitions break even sooner). A RadioCfg override keeps
	// the radio-intrinsic fallback: the override's tON+tOFF.
	if b.params.SSBreakEven < 0 && sc.RadioCfg == nil {
		b.params.SSBreakEven = prof.BreakEven()
	}
	return nil
}

// deploy places the topology and builds the routing tree. Placement
// draws first from eng, which carries all build-time randomness.
//
// Placement and tree construction depend only on the deployment key
// fields (seed, topology config, tree policy, propagation model), so an
// arena with a cache can reuse a previous build's topology and tree
// template. The engine's rng stream must stay identical either way: on a
// hit, Replay burns exactly the draws the generator would have consumed,
// into arena scratch. The run's tree is an arena clone of the cached
// template, on a hit and on a miss alike.
func (b *builder) deploy(eng *sim.Engine, sc *Scenario) (*topology.Topology, *routing.Tree, error) {
	cache := b.arena.cache
	var key string
	if cache != nil {
		buf := appendDeployKey(sim.ArenaSlice[byte](eng, "experiment.deploykey", 128)[:0], *sc)
		if d, ok := cache.lookup(buf); ok {
			scratch := sim.ArenaSlice[geom.Point](eng, "experiment.replay", max(sc.Topology.NumNodes, 0))
			if err := topology.Replay(eng.Rand(), sc.Topology, scratch); err != nil {
				return nil, nil, err
			}
			return d.topo, d.tree.Clone(eng), nil
		}
		// The key leaves the arena before a flood rewinds it.
		key = string(buf)
	}
	topo, err := topology.New(eng.Rand(), sc.Topology)
	if err != nil {
		return nil, nil, err
	}
	root := topo.CentralNode()
	var tree *routing.Tree
	if sc.BFSTree {
		tree, err = routing.BuildBFS(topo, root, sc.TreeMaxDist)
	} else {
		fcfg := routing.DefaultFloodConfig()
		fcfg.MaxDist = sc.TreeMaxDist
		fcfg.ChannelCfg.Propagation = b.prop
		if !phy.IsDisc(b.prop) {
			// Probabilistic links can strand first-round stragglers;
			// extra flood rounds keep tree construction converging.
			fcfg.Rounds = 3
		}
		tree, err = flood(eng, sc, topo, root, fcfg)
	}
	if err != nil {
		return nil, nil, err
	}
	if cache != nil {
		// The built tree becomes the pristine template; the run mutates
		// its clone through failures and re-parenting.
		cache.store(key, &deployment{topo: topo, tree: tree})
		tree = tree.Clone(eng)
	}
	return topo, tree, nil
}

// channel opens the run's channel over the shared topology and fixes
// the member list every later stage walks.
func (b *builder) channel() (err error) {
	if b.Channel, err = phy.NewChannel(b.Eng, b.Topo, b.chCfg); err != nil {
		return err
	}
	members := sim.ArenaSlice[node.NodeID](b.Eng, "experiment.members", b.Tree.Size())
	b.members = b.Tree.AppendMembers(members[:0])
	return nil
}

// stacks wires a node — radio, MAC, and the protocol stack from the
// protocol table — onto every tree member in member order, then a dark station
// onto every other node so the channel's station table is complete.
func (b *builder) stacks() {
	sc := &b.Scenario
	b.Nodes = sim.ArenaSlice[*node.Node](b.Eng, "experiment.nodes", b.Topo.NumNodes())
	// Builders only read the context, so one serves every node; only
	// Node and Sink change per node. It comes from the arena because the
	// builders take it through an indirect call, which moves it to the
	// heap.
	ctx := sim.ArenaGrab[protocol.BuildContext](b.Eng, "experiment.buildctx")
	*ctx = protocol.BuildContext{
		Eng:      b.Eng,
		Tree:     b.Tree,
		QueryCfg: b.qCfg,
		Queries:  len(sc.Queries),
		Params:   b.params,
	}
	for _, id := range b.members {
		n := node.New(b.Eng, id, b.Tree, b.Channel, b.rcfg)
		n.SetTracer(b.obs.tracer)
		b.obs.tap(id, n.Radio, b.profile)
		var s query.Sink
		if id == b.root {
			s = &b.obs
		}
		ctx.Node, ctx.Sink = n, s
		b.proto(ctx)
		b.obs.watchStack(n)
		b.Nodes[id] = n
	}
	for id, n := range b.Nodes {
		if n != nil {
			continue
		}
		r := radio.New(b.Eng, b.rcfg)
		// Constructing the MAC attaches the station to the channel.
		mac.New(b.Eng, b.Channel, node.NodeID(id), r, discard{})
		r.TurnOff()
	}
}

// workload schedules the run's activity on top of the wired stacks:
// queries and their setup slots, extension flows, node start, the
// perturbation table, battery polling, and the warm-up snapshot.
func (b *builder) workload() error {
	sc := &b.Scenario
	// The run keeps one copy of each query's spec, which every agent and
	// shaper points at.
	specs := sim.ArenaSlice[query.Spec](b.Eng, "experiment.specs", len(sc.Queries))
	copy(specs, sc.Queries)
	for i := range specs {
		for _, id := range b.members {
			if err := b.Nodes[id].Agent.Register(&specs[i]); err != nil {
				return err
			}
		}
		if sc.SetupSlot > 0 {
			b.scheduleSetupSlot(specs[i])
		}
	}
	if err := b.flows(); err != nil {
		return err
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

// flows registers the §3 extension flows on every member: peer-to-peer
// flows (drawing their unpinned endpoints from the engine rng), then
// downstream dissemination.
func (b *builder) flows() error {
	sc, members := &b.Scenario, b.members
	if len(sc.PeerFlows) == 0 && len(sc.Dissemination) == 0 {
		return nil
	}
	for _, ds := range sc.Dissemination {
		for _, q := range sc.Queries {
			if q.ID == ds.ID {
				return fmt.Errorf("experiment: dissemination flow %d collides with a query ID", ds.ID)
			}
		}
	}
	for _, id := range members {
		b.Nodes[id].InstallRelay(nil)
	}
	// Register flow by flow, each on every member in ID order: the
	// registrations schedule events, so their order is the run's
	// same-instant tie-break. Random endpoints resolve into this build's
	// own copy: the caller's slice must stay reusable for an identical
	// rerun.
	sc.PeerFlows = append([]core.P2PSpec(nil), sc.PeerFlows...)
	rng := b.Eng.Rand()
	// other draws a member other than id.
	other := func(id node.NodeID) node.NodeID {
		for {
			if m := members[rng.Intn(len(members))]; m != id {
				return m
			}
		}
	}
	for i := range sc.PeerFlows {
		// A negative endpoint is drawn, a pinned one kept: with both
		// drawn, the source first, then a distinct destination.
		fl := &sc.PeerFlows[i]
		if (fl.Src < 0 || fl.Dst < 0) && len(members) < 2 {
			return fmt.Errorf("experiment: peer flow %d needs a random endpoint, but the tree has %d member(s)", fl.ID, len(members))
		}
		switch {
		case fl.Src < 0 && fl.Dst < 0:
			fl.Src = members[rng.Intn(len(members))]
			fl.Dst = other(fl.Src)
		case fl.Src < 0:
			fl.Src = other(fl.Dst)
		case fl.Dst < 0:
			fl.Dst = other(fl.Src)
		}
		path := b.Tree.Path(fl.Src, fl.Dst)
		if path == nil {
			return fmt.Errorf("experiment: no path for peer flow %d (%d→%d)", fl.ID, fl.Src, fl.Dst)
		}
		for _, id := range members {
			if err := b.Nodes[id].Flows.Peer(*fl, path); err != nil {
				return err
			}
		}
	}
	for _, ds := range sc.Dissemination {
		for _, id := range members {
			if err := b.Nodes[id].Flows.Disseminate(ds); err != nil {
				return err
			}
		}
	}
	return nil
}

// faults schedules the perturbation table, row by row, through a
// dynamics host over the built Sim. The host comes from the arena: the
// rows' closures hold it for the whole run.
func (b *builder) faults() error {
	sc := &b.Scenario
	if len(sc.Dynamics) == 0 {
		return nil
	}
	h := sim.ArenaGrab[dynHost](b.Eng, "experiment.dynhost")
	h.Sim = b.Sim
	return dynamics.Schedule(h, sc.Dynamics, sc.Seed)
}

// meter schedules the accounting loops: battery exhaustion (one poll
// per simulated second) and the radio snapshot at MeasureFrom that
// excludes warm-up. Both run through dispatchers that take the Sim as
// their argument, so metering builds no closure.
func (b *builder) meter() {
	sc, e := &b.Scenario, b.Eng
	if sc.BatteryJ > 0 {
		e.AfterArg(time.Second, batteryCheck, b.Sim)
	}
	n := b.Topo.NumNodes()
	b.activeAt0 = sim.ArenaSlice[time.Duration](e, "experiment.activeAt0", n)
	b.energyAt0 = sim.ArenaSlice[float64](e, "experiment.energyAt0", n)
	e.ScheduleArg(sc.MeasureFrom, measureSnapshot, b.Sim)
}

// batteryCheck kills every live non-root member whose radio has drawn
// its battery budget, then polls again a simulated second later.
func batteryCheck(x any) {
	s := x.(*Sim)
	for _, id := range s.members {
		n := s.Nodes[id]
		if id == s.root || n.Killed() {
			continue
		}
		if n.Radio.Energy(s.profile) >= s.Scenario.BatteryJ {
			if s.firstDeath == 0 {
				s.firstDeath = s.Eng.Now()
			}
			s.batteryDeaths++
			n.Kill()
			s.Channel.Disable(id)
		}
	}
	s.Eng.AfterArg(time.Second, batteryCheck, s)
}

// measureSnapshot records every member's radio active time and energy
// at MeasureFrom, the zero of the measurement window.
func measureSnapshot(x any) {
	s := x.(*Sim)
	for _, id := range s.members {
		n := s.Nodes[id]
		s.activeAt0[id] = n.Radio.ActiveTime()
		s.energyAt0[id] = n.Radio.Energy(s.profile)
	}
}

// Simulate drains the event queue up to the scenario's duration. It
// must run exactly once, between Build and Collect.
func (s *Sim) Simulate() { _ = s.SimulateContext(context.Background(), Budget{}) }

// Collect aggregates the run's metrics into a Result. Call it after
// Simulate. Collecting feeds every node's summary to the run's metric
// sinks, so it happens once: a repeated Collect returns the first
// Result.
func (s *Sim) Collect() *Result {
	if s.collected != nil {
		return s.collected
	}
	res := &Result{
		Protocol:       s.Scenario.Protocol,
		Seed:           s.Scenario.Seed,
		DutyByRank:     make(map[int]float64),
		LatencyByClass: make(map[int]stats.DurationStats),
		TreeSize:       s.Tree.Size(),
		MaxRank:        s.Tree.MaxRank(),
		Events:         s.Eng.Processed(),
		Channel:        s.Channel.Stats(),
		Trace:          s.obs.tracer.Events(),
		FirstDeath:     s.firstDeath,
		BatteryDeaths:  s.batteryDeaths,
	}
	s.collectNodes(res)
	s.collectFlows(res)
	if s.obs.auditor != nil {
		res.Audit = s.obs.auditor.Summary()
	}
	s.collected = res
	return res
}

// stack returns node id's stack, or nil for a non-member or an ID
// outside the deployment (a failure or crash pinned to one is a no-op).
func (s *Sim) stack(id node.NodeID) *node.Node {
	if id < 0 || int(id) >= len(s.Nodes) {
		return nil
	}
	return s.Nodes[id]
}

// dynHost adapts the built simulation to the dynamics.Host surface.
// AddQuery, RemoveQuery and Victim walk the Sim's build-time member
// list: unlike the tree's live members, it keeps nodes the failure
// detector later marks dead, which RemoveQuery must still reach. The
// channel keeps every node's state: a crashed node is suspended, a
// dead one (a failure, battery exhaustion) disabled.
type dynHost struct{ *Sim }

var _ dynamics.Host = (*dynHost)(nil)

func (h *dynHost) Eng() *sim.Engine                               { return h.Sim.Eng }
func (h *dynHost) Root() topology.NodeID                          { return h.Tree.Root() }
func (h *dynHost) Neighbors(id topology.NodeID) []topology.NodeID { return h.Topo.Neighbors(id) }

// Members is the build-time member list: kinds choose their victims at
// build, before anything has died.
func (h *dynHost) Members() []topology.NodeID { return h.members }

func (h *dynHost) Crash(id topology.NodeID) {
	n := h.stack(id)
	if n == nil || n.Killed() || id == h.Tree.Root() {
		return
	}
	n.Crash()
	h.Channel.Suspend(id)
}

// Recover leaves a disabled node down: one that died while crashed
// does not come back when its outage ends. On a live node both calls
// are no-ops.
func (h *dynHost) Recover(id topology.NodeID) {
	if n := h.stack(id); n != nil && !h.Channel.Disabled(id) {
		h.Channel.Resume(id)
		n.Recover()
	}
}

// Kill guards on permanent disablement, not Killed(): a node Crash took
// down still reads as killed, but a failure must make its death
// permanent (the channel refuses to Resume a Disabled station).
func (h *dynHost) Kill(id topology.NodeID) {
	if n := h.stack(id); n != nil && !h.Channel.Disabled(id) {
		n.Kill()
		h.Channel.Disable(id)
	}
}

// Victim draws from the non-leaves, or from the leaves when there are
// none, each pool in ID order; the pool is arena scratch.
func (h *dynHost) Victim() topology.NodeID {
	pool := sim.ArenaSlice[node.NodeID](h.Sim.Eng, "experiment.victims", len(h.members))
	for _, leaves := range [2]bool{false, true} {
		pool = pool[:0]
		for _, id := range h.members {
			if id != h.root && h.Tree.IsLeaf(id) == leaves {
				pool = append(pool, id)
			}
		}
		if len(pool) > 0 {
			return pool[h.Sim.Eng.Rand().Intn(len(pool))]
		}
	}
	return routing.None
}

func (h *dynHost) SetLinkLoss(a, b topology.NodeID, p float64) {
	// The injector validated its peak < 1 at build time, so the only
	// error SetLinkLoss can return is unreachable from here.
	_ = h.Channel.SetLinkLoss(a, b, p)
}

func (h *dynHost) AddQuery(spec query.Spec) error {
	if h.obs.auditor != nil {
		h.obs.auditor.RegisterQuery(spec)
	}
	sp := sim.ArenaGrab[query.Spec](h.Eng(), "experiment.spec")
	*sp = spec
	for _, id := range h.members {
		n := h.Nodes[id]
		if n.Killed() {
			continue // offline during setup: it misses the query
		}
		if err := n.Agent.Register(sp); err != nil {
			return err
		}
	}
	return nil
}

func (h *dynHost) RemoveQuery(id query.ID) {
	// Deregister everywhere, crashed nodes included: a node recovering
	// after the burst ended must not keep producing burst reports.
	for _, nid := range h.members {
		h.Nodes[nid].Agent.Deregister(id)
	}
}

// scheduleSetupSlot arranges the paper's setup-slot behavior for one
// query: all ESSAT nodes hold their radios on during
// [phase−slot, phase], and the setup request floods down the tree on the
// air (each member rebroadcasts once, jittered inside the slot).
func (b *builder) scheduleSetupSlot(spec query.Spec) {
	eng, members, nodes, slot := b.Eng, b.members, b.Nodes, b.Scenario.SetupSlot
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

// collectNodes folds the per-node radio, agent, and MAC counters into
// res, feeds each node's summary to the sinks, and takes the root
// recorder's latency and coverage and the sinks' records.
func (s *Sim) collectNodes(res *Result) {
	sc, tree := &s.Scenario, s.Tree
	window := float64(sc.Duration - sc.MeasureFrom)
	var duty, energy stats.Welford
	maxRank := 0
	for _, id := range s.members {
		if tree.Alive(id) {
			maxRank = max(maxRank, tree.Rank(id))
		}
	}
	dutyRank := sim.ArenaSlice[stats.Welford](s.Eng, "experiment.dutyRank", maxRank+1)
	var reports, phaseUpdates uint64
	// Walk the live members in ID order so float accumulation is
	// deterministic. Nothing joins the tree after the build, so they are
	// the build-time members the tree still holds alive.
	for _, id := range s.members {
		n := s.Nodes[id]
		if !tree.Alive(id) || n.Killed() {
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

		if s.obs.sleeps {
			res.SleepIntervals = append(res.SleepIntervals, s.obs.taps[id].sleeps...)
		}
		if dts, ok := n.Agent.Shaper().(*core.DTS); ok {
			res.PhaseShifts += dts.Stats().PhaseShifts
		}

		s.obs.nodeDone(stats.NodeSummary{Node: int(id), Rank: r, Duty: dc, EnergyJ: e})
	}
	res.DutyCycle = duty.Mean()
	for r := range dutyRank {
		if dutyRank[r].N() > 0 {
			res.DutyByRank[r] = dutyRank[r].Mean()
		}
	}
	if reports > 0 {
		bits := float64(phaseUpdates) * float64(query.PhaseBytes) * 8
		res.PhaseUpdateBitsPerReport = bits / float64(reports)
	}

	res.Latency = s.obs.root.Summarize(res.LatencyByClass)
	res.Coverage = s.obs.root.MeanCoverage()
	res.Records = stats.Records(s.obs.sinks, stats.RunMeta{
		Protocol:    string(sc.Protocol),
		Seed:        sc.Seed,
		Duration:    sc.Duration,
		MeasureFrom: sc.MeasureFrom,
		TreeSize:    tree.Size(),
	})
	res.EnergyMean = energy.Mean()
	if res.EnergyMax > 0 {
		drawWatts := res.EnergyMax / time.Duration(window).Seconds()
		res.NetworkLifetime = time.Duration(stats.LifetimeBatteryJ / drawWatts * float64(time.Second))
	}
}

// collectFlows computes the §3 extension flows' delivery and latency.
// Peer delivery counts every member; dissemination delivery counts the
// live ones, each non-root member expecting every released message.
func (s *Sim) collectFlows(res *Result) {
	sc, tree := &s.Scenario, s.Tree
	if len(sc.PeerFlows) == 0 && len(sc.Dissemination) == 0 {
		return
	}
	var consumed, originated, received, expected uint64
	var peerLat, dissLat time.Duration
	for _, id := range s.members {
		n := s.Nodes[id]
		if !tree.Alive(id) || n.Flows == nil {
			continue
		}
		for _, fl := range sc.PeerFlows {
			st := n.Flows.Stats(fl.ID)
			consumed += st.Consumed
			originated += st.Originated
			peerLat += st.LatencySum
		}
		if n.Killed() {
			continue
		}
		for _, fl := range sc.Dissemination {
			st := n.Flows.Stats(fl.ID)
			received += st.Consumed
			dissLat += st.LatencySum
			if id != tree.Root() && fl.Phase < sc.Duration {
				// Messages are released at Phase + k·Period < Duration.
				expected += uint64((sc.Duration-fl.Phase-1)/fl.Period) + 1
			}
		}
	}
	if originated > 0 {
		res.P2PDelivery = float64(consumed) / float64(originated)
	}
	if consumed > 0 {
		res.P2PLatency = peerLat / time.Duration(consumed)
	}
	if expected > 0 {
		res.DisseminationDelivery = float64(received) / float64(expected)
	}
	if received > 0 {
		res.DisseminationLatency = dissLat / time.Duration(received)
	}
}
