// Package dynamics is the network-dynamics fault/load layer: a table of
// deterministic, seed-driven disturbance kinds that perturb a running
// simulation — node crash/recovery schedules, per-link loss ramps, and
// traffic bursts — so every protocol × topology combination can be
// evaluated under churn instead of only on static, always-healthy
// networks.
//
// Each kind is one function that validates its flat Params and then
// schedules its actions onto the engine during experiment.Build, through
// the Host interface the experiment layer implements. Every choice a
// kind makes (victims, degraded links, burst phases) comes from its own
// rand.Rand, seeded from the scenario seed and the disturbance's
// position, never from the engine's stream: two runs of the same
// scenario perturb identically, and adding a disturbance does not shift
// the choices of the ones before it.
package dynamics

import (
	"fmt"
	"math/rand"
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
	// Members returns the routing tree's live members in ID order.
	Members() []topology.NodeID
	// Root returns the tree root (never a valid fault target).
	Root() topology.NodeID
	// Neighbors returns a node's radio neighbors.
	Neighbors(id topology.NodeID) []topology.NodeID
	// Crash takes a node down recoverably; Recover brings it back.
	// Both are no-ops on the root and on nodes already in the target
	// state.
	Crash(id topology.NodeID)
	Recover(id topology.NodeID)
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
	// Node pins the target node; nil (the zero value) lets the
	// injector pick seed-driven victims.
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
	// Seed perturbs the injector's private random stream; the effective
	// seed also folds in the scenario seed and the injector index.
	Seed int64
}

// kind is one disturbance kind. check is the whole of its validation of
// p's values, run both when a spec compiles and when the kind is
// scheduled. schedule arranges a checked disturbance's actions on h's
// engine, once, during experiment.Build, before the run starts; rng is
// the disturbance's private seed-derived stream for every choice it
// must make, and index is its position in the scenario's dynamics list,
// for kinds that need per-instance identity (a burst derives its
// query-ID stride from it).
type kind struct {
	check    func(p Params) error
	schedule func(h Host, p Params, rng *rand.Rand, index int) error
}

// kinds lists every disturbance kind in presentation order.
var kinds = registry.Table[string, kind]{
	{Name: KindCrash, Model: kind{checkCrash, crash}},
	{Name: KindLinkLoss, Model: kind{checkLinkLoss, linkLoss}},
	{Name: KindBurst, Model: kind{checkBurst, burst}},
}

// Kinds lists every disturbance kind in presentation order.
func Kinds() []string { return kinds.Names() }

// Check validates p as a disturbance of the named kind without
// scheduling anything: an unknown kind or a value the kind rejects is an
// error, the same one Schedule would return.
func Check(name string, p Params) error {
	k, ok := kinds.Lookup(name)
	if !ok {
		return fmt.Errorf("dynamics: unknown injector kind %q (registered: %v)", name, Kinds())
	}
	return k.check(p)
}

// Schedule validates and schedules one disturbance of the named kind on
// h. Its private stream is seeded from (scenarioSeed, index, p.Seed) so
// scenarios perturb reproducibly and disturbances are independent of
// each other.
func Schedule(h Host, name string, p Params, scenarioSeed int64, index int) error {
	if err := Check(name, p); err != nil {
		return err
	}
	k, _ := kinds.Lookup(name)
	seed := scenarioSeed*1_000_003 + int64(index)*7919 + p.Seed
	return k.schedule(h, p, rand.New(rand.NewSource(seed)), index)
}

// pickVictims draws n distinct non-root members from h, or the pinned
// node when p.Node is set. Selection is from the sorted Members list
// with the injector's private stream, so it is reproducible. A pin on
// the root or on a node outside the tree yields no victims (the root
// is never a valid fault target; a non-member has nothing to fault).
func pickVictims(h Host, p Params, rng *rand.Rand, n int) []topology.NodeID {
	members := h.Members()
	if p.Node != nil {
		id := topology.NodeID(*p.Node)
		if id == h.Root() {
			return nil
		}
		for _, m := range members {
			if m == id {
				return []topology.NodeID{id}
			}
		}
		return nil
	}
	var pool []topology.NodeID
	for _, id := range members {
		if id != h.Root() {
			pool = append(pool, id)
		}
	}
	if n > len(pool) {
		n = len(pool)
	}
	// Partial Fisher–Yates over the ID-ordered pool.
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	return pool[:n]
}
