// Package dynamics is the one way a run is perturbed: a table of
// deterministic disturbance kinds — §4.3 permanent failures, query
// stops, crash/recovery schedules, per-link loss ramps, and traffic
// bursts — so every protocol × topology combination can be evaluated
// under churn, not only on static, always-healthy networks.
//
// A run's disturbances are rows: a kind plus its flat Params. Schedule
// walks them in order during experiment.Build, and each kind schedules
// its actions through the Host interface the experiment layer
// implements. Every choice a crash, link-loss ramp or burst makes comes
// from its own rand.Rand, seeded from the scenario seed and the row's
// position, never from the engine's stream: adding a disturbance does
// not shift the choices of the ones before it. A failure is the one
// exception: its random victim comes from the engine's rng.
package dynamics

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/registry"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// Host is the simulation surface injectors drive. The experiment layer
// implements it over the built Sim; injector actions run as ordinary
// engine events and are therefore part of the deterministic trace.
type Host interface {
	// Eng returns the run's engine; injectors schedule through it.
	Eng() *sim.Engine
	// Members returns the routing tree's members in ID order, as they
	// stand at build, when every kind makes its choices.
	Members() []topology.NodeID
	// Root returns the tree root (never a valid fault target).
	Root() topology.NodeID
	// Neighbors returns a node's radio neighbors, which the caller
	// must not modify.
	Neighbors(id topology.NodeID) []topology.NodeID
	// Crash takes a node down recoverably; Recover brings it back.
	// Both are no-ops on the root and on nodes already in the target
	// state.
	Crash(id topology.NodeID)
	Recover(id topology.NodeID)
	// Kill takes a node down for good, a crashed one included: a later
	// Recover does not bring it back.
	Kill(id topology.NodeID)
	// Victim draws a random non-root member from the engine's rng,
	// preferring non-leaves (both of §4.3's recovery paths run); it
	// returns a negative ID when there is none.
	Victim() topology.NodeID
	// SetLinkLoss sets the drop probability of the directed link a→b.
	SetLinkLoss(a, b topology.NodeID, p float64)
	// AddQuery registers a query on every live member (crashed nodes
	// miss it, as they would miss an over-the-air setup); RemoveQuery
	// deregisters it everywhere, including on crashed nodes.
	AddQuery(spec query.Spec) error
	RemoveQuery(id query.ID)
}

// Params is the flat, declarative parameter bag one disturbance is
// scheduled from; each kind reads the fields it needs and ignores the
// rest. The experiment spec layer maps the JSON `dynamics` block
// onto it one-to-one.
type Params struct {
	// At is when the injector starts acting.
	At time.Duration
	// Duration is how long the disturbance lasts (crash outage length,
	// loss-ramp episode length, burst length). Zero means permanent for
	// crashes and is invalid for ramps and bursts.
	Duration time.Duration
	// Node pins the target node; nil (the zero value) lets the kind
	// pick its victims (a failure's from the engine rng).
	Node *int
	// Count is how many victims a seed-driven injector picks (crash);
	// zero means one, and a negative count is invalid.
	Count int
	// Peak is the maximum loss probability of a link-loss ramp.
	Peak float64
	// Steps is the number of loss adjustments across a ramp episode;
	// zero means 8, and a negative count is invalid.
	Steps int
	// Period is the burst queries' report period.
	Period time.Duration
	// Queries is how many burst queries are injected; zero means one,
	// and a negative count is invalid.
	Queries int
	// Query is the query a stop deregisters.
	Query query.ID
	// Seed perturbs the injector's private random stream; the effective
	// seed also folds in the scenario seed and the row's stream index.
	Seed int64
}

// Row is one disturbance of a run: a listed kind plus its parameters.
type Row struct {
	Kind string
	Params
}

// kind is one disturbance kind. check, when set, validates the values
// Check does not check for every kind. schedule arranges a checked
// row's actions on h's engine during experiment.Build. A kind with
// stream set draws its choices from rng, the row's private stream, and
// index is the row's position among the rows of such kinds (a burst
// derives its query-ID stride from it); the others get a nil rng, so a
// failure or a stop never shifts another row's stream.
type kind struct {
	check    func(p Params) error
	schedule func(h Host, p Params, rng *rand.Rand, index int) error
	stream   bool
}

// kinds lists every disturbance kind in presentation order.
var kinds = registry.Table[string, kind]{
	{Name: KindFail, Model: kind{nil, fail, false}},
	{Name: KindStop, Model: kind{nil, stop, false}},
	{Name: KindCrash, Model: kind{checkCrash, crash, true}},
	{Name: KindLinkLoss, Model: kind{checkLinkLoss, linkLoss, true}},
	{Name: KindBurst, Model: kind{checkBurst, burst, true}},
}

// Kinds lists every disturbance kind in presentation order.
func Kinds() []string { return kinds.Names() }

// Check validates p as a disturbance of the named kind without
// scheduling anything: an unknown kind, a negative start, a negative
// node pin (nil is the way to ask for a random one) or a value the kind
// rejects is an error, the same one Schedule would return.
func Check(name string, p Params) error {
	k, ok := kinds.Lookup(name)
	switch {
	case !ok:
		return fmt.Errorf("dynamics: unknown injector kind %q (registered: %v)", name, Kinds())
	case p.At < 0:
		return fmt.Errorf("dynamics/%s: negative start %v", name, p.At)
	case p.Node != nil && *p.Node < 0:
		return fmt.Errorf("dynamics/%s: negative node %d (omit it for a random one)", name, *p.Node)
	case k.check == nil:
		return nil
	}
	return k.check(p)
}

// Schedule validates and schedules rows on h, in order. A row of a kind
// that draws a private stream gets one seeded from (scenarioSeed, its
// index among such rows, its Seed), so scenarios perturb reproducibly
// and disturbances are independent of each other.
func Schedule(h Host, rows []Row, scenarioSeed int64) error {
	streams := 0
	for _, r := range rows {
		if err := Check(r.Kind, r.Params); err != nil {
			return err
		}
		k, _ := kinds.Lookup(r.Kind)
		index, rng := streams, (*rand.Rand)(nil)
		if k.stream {
			rng = sim.ArenaRand(h.Eng(), "dynamics.rng", scenarioSeed*1_000_003+int64(index)*7919+r.Seed)
			streams++
		}
		if err := k.schedule(h, r.Params, rng, index); err != nil {
			return err
		}
	}
	return nil
}

// pickVictims draws n distinct non-root members from h, or the pinned
// node when p.Node is set. Selection is from the sorted Members list
// with the injector's private stream, so it is reproducible. The
// victims are arena scratch, valid until the run ends. A pin on
// the root or on a node outside the tree yields no victims (the root
// is never a valid fault target; a non-member has nothing to fault).
func pickVictims(h Host, p Params, rng *rand.Rand, n int) []topology.NodeID {
	root, members := h.Root(), h.Members()
	if p.Node != nil {
		if id := topology.NodeID(*p.Node); id != root && slices.Contains(members, id) {
			pin := sim.ArenaSlice[topology.NodeID](h.Eng(), "dynamics.victims", 1)
			pin[0] = id
			return pin
		}
		return nil
	}
	pool := sim.ArenaSlice[topology.NodeID](h.Eng(), "dynamics.victims", len(members))
	pool = slices.DeleteFunc(pool[:copy(pool, members)], func(id topology.NodeID) bool { return id == root })
	n = min(n, len(pool))
	// Partial Fisher–Yates over the ID-ordered pool.
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n]
}
