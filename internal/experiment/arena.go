package experiment

import (
	"container/list"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// Arena is reusable per-run state for repeated scenario execution: one
// simulation engine whose event freelist and typed memory pools survive
// across runs (reset, not freed), plus an optional shared deployment
// cache. A sweep that replays the same scenario shape through one arena
// reaches steady-state zero heap growth across sweep points.
//
// An Arena is single-threaded: one run at a time. Concurrent sweeps use
// one Arena per worker, optionally sharing a DeployCache (which is
// safe for concurrent use).
//
// A build given no arena runs on a private one. Results are
// byte-identical on a fresh or a reused arena; it changes where memory
// comes from, never what a run computes.
type Arena struct {
	eng   *sim.Engine
	cache *DeployCache
}

// NewArenaWithCache returns an arena that serves deployments
// (topology + tree template) from cache; several arenas may share one
// cache. With a nil cache the engine and its memory pools are reused
// across runs, but every run still builds its own topology and tree.
func NewArenaWithCache(cache *DeployCache) *Arena { return &Arena{cache: cache} }

// discard drops the arena's engine (keeping the deployment cache), so
// the next run builds a fresh one. RunContextWith calls it on a
// contained panic: a stack that panicked mid-event may have left engine
// state inconsistent in ways Reset cannot see.
func (a *Arena) discard() {
	if a != nil {
		a.eng = nil
	}
}

// engine returns the arena's reusable engine reset to seed, creating it
// (with an attached sim.Arena) on first use.
func (a *Arena) engine(seed int64) *sim.Engine {
	if a.eng == nil {
		a.eng = sim.New(seed)
		a.eng.SetArena(sim.NewArena())
		return a.eng
	}
	a.eng.Reset(seed)
	return a.eng
}

// flood builds a deployment's setup-flood tree on the run's engine eng,
// reset to the flood's seed: the flood's channel, radios, MACs,
// stations and events come from eng's pools and event freelist. eng is
// then reset to the run's seed and the placement draws of sc.Topology
// are replayed, so the run starts from the engine state the placement
// left, and its own stack reuses the flood's memory. The
// tree itself is heap memory. Anything the run took from its pools
// before the flood is reclaimed with it.
func flood(eng *sim.Engine, sc *Scenario, topo *topology.Topology, root routing.NodeID, cfg routing.FloodConfig) (*routing.Tree, error) {
	eng.Reset(sc.Seed + 1)
	tree, err := routing.BuildFloodOn(eng, topo, root, cfg)
	eng.Reset(sc.Seed)
	if err != nil {
		return nil, err
	}
	scratch := sim.ArenaSlice[geom.Point](eng, "experiment.replay", topo.NumNodes())
	return tree, topology.Replay(eng.Rand(), sc.Topology, scratch)
}

// deployment is one cached placement: the immutable topology (shared by
// reference — runs never mutate it) and a pristine routing-tree
// template (cloned per run — runs mutate their tree).
type deployment struct {
	topo *topology.Topology
	tree *routing.Tree
}

// DefaultDeployCacheSize bounds NewDeployCache(0). A sweep varies seeds
// and scales far more often than it varies placements per seed, so a
// few dozen entries cover the working set of every catalog figure.
const DefaultDeployCacheSize = 64

// DeployCache is a bounded LRU cache of built deployments keyed by the
// canonical deployment key (seed, topology config, tree policy,
// propagation model). It is safe for concurrent use; hit and miss
// counts are exposed for observability.
type DeployCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[string]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheEntry struct {
	key string
	dep *deployment
}

// NewDeployCache returns a cache bounded to max deployments; max <= 0
// selects DefaultDeployCacheSize.
func NewDeployCache(max int) *DeployCache {
	if max <= 0 {
		max = DefaultDeployCacheSize
	}
	return &DeployCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Stats returns the lifetime hit and miss counts.
func (c *DeployCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of cached deployments.
func (c *DeployCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// lookup returns the deployment cached under key. The key is a byte
// slice so that a hit, which indexes the map with string(key), copies
// nothing.
func (c *DeployCache) lookup(key []byte) (*deployment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[string(key)]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).dep, true
}

func (c *DeployCache) store(key string, dep *deployment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Two workers raced on the same miss; either build is correct
		// (deployments are deterministic in the key), keep the newer.
		el.Value.(*cacheEntry).dep = dep
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, dep: dep})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// appendDeployKey appends to dst the canonical key of exactly the
// scenario fields that determine placement and tree construction: the
// seed (placement draws and the flood's derived seed), the topology
// config, the tree policy, and the propagation model name + params
// (candidate radius, flood channel model, flood round count). Everything
// else — duration, queries, loss rate, radio profile and latency
// override, failures — shapes the run, not the deployment. Callers must
// set Topology.NeighborRange before keying (build does, from the
// resolved model's MaxRange).
func appendDeployKey(dst []byte, sc Scenario) []byte {
	dst = strconv.AppendInt(append(dst, "s="...), sc.Seed, 10)
	dst = strconv.AppendInt(append(dst, " n="...), int64(sc.Topology.NumNodes), 10)
	dst = appendFloat(append(dst, " a="...), sc.Topology.AreaSide)
	dst = appendFloat(append(dst, " r="...), sc.Topology.Range)
	dst = appendFloat(append(dst, " nr="...), sc.Topology.NeighborRange)
	dst = append(append(dst, " g="...), sc.Topology.Generator...)
	dst = appendFloat(append(dst, " d="...), sc.TreeMaxDist)
	dst = strconv.AppendBool(append(dst, " bfs="...), sc.BFSTree)
	dst = append(append(dst, " p="...), sc.Propagation...)
	dst = appendSortedParams(dst, "tp", sc.Topology.Params)
	return appendSortedParams(dst, "pp", sc.PropagationParams)
}

// appendFloat appends f as fmt's %g would.
func appendFloat(dst []byte, f float64) []byte { return strconv.AppendFloat(dst, f, 'g', -1, 64) }

func appendSortedParams(dst []byte, label string, params map[string]float64) []byte {
	if len(params) == 0 {
		return dst
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		dst = append(append(append(append(dst, ' '), label...), '.'), k...)
		dst = appendFloat(append(dst, '='), params[k])
	}
	return dst
}
