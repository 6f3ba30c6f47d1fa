package sim

import "math/bits"

// Arena is a per-run memory arena: a set of typed free-slab pools that
// are *reset*, not freed, between runs. A sweep that replays the same
// (or a similar) scenario shape through one engine reaches steady-state
// zero heap growth across runs: the first run populates the slabs, and
// every later run re-slices the same backing memory.
//
// An Arena is attached to an Engine (Engine.SetArena); layers that hold
// the engine obtain memory through the package-level generics
// ArenaSlice and ArenaGrab, which fall back to plain make/new when no
// arena is attached, so every classic entry point is untouched.
//
// Ownership rule: memory handed out by an arena is valid until the next
// Engine.Reset. Resetting invalidates every slice and pointer from the
// previous run — callers must treat a reset like the end of the
// process for per-run state. Returned memory is always zeroed, so an
// arena-backed run is bit-identical to a make/new-backed one.
type Arena struct {
	pools map[string]resettable
}

// resettable is the type-erased face of the typed pools: reclaim
// everything handed out, keep the backing memory.
type resettable interface{ reset() }

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{pools: make(map[string]resettable)}
}

// reset reclaims every pool. Pools are independent, so map order does
// not matter.
func (a *Arena) reset() {
	for _, p := range a.pools {
		p.reset()
	}
}

// SetArena attaches an arena to the engine (nil detaches). The arena is
// reset by Engine.Reset together with the scheduler state.
func (e *Engine) SetArena(a *Arena) { e.arena = a }

// Arena returns the attached arena, or nil.
func (e *Engine) Arena() *Arena { return e.arena }

// ArenaSlice returns a zeroed slice of n elements from the engine's
// arena pool named tag, or a fresh make([]T, n) when the engine has no
// arena. Each tag must always be used with the same element type.
//
// A pool keeps its slots in power-of-two capacity classes: a request
// for n takes the class of the smallest power of two >= n, and within a
// class slots are handed out in request order. A repeated identical run
// therefore hits the same backing arrays, allocation-free. Callers ask
// for what they need, not a guess: a class's first slot is allocated at
// exactly the size requested, and a request for nothing takes no slot.
// A slot too small for a later request in its class is replaced once by
// one at the class ceiling, which fits every request of that class, so
// runs of varying shape reuse their slots instead of replacing them.
func ArenaSlice[T any](e *Engine, tag string, n int) []T {
	if e == nil || e.arena == nil {
		return make([]T, n)
	}
	return slicePoolFor[T](e.arena, tag).get(n)
}

// ArenaAppend appends v to s like the built-in append, but when s is
// full it moves to an arena slice from the pool named tag, of twice the
// capacity (one element for an empty s). A per-run queue or freelist that starts
// empty and grows the same way every run therefore re-slices the same
// backing arrays on a warm arena instead of regrowing on the heap.
func ArenaAppend[T any](e *Engine, tag string, s []T, v T) []T {
	if len(s) == cap(s) {
		grown := ArenaSlice[T](e, tag, max(2*cap(s), 1))
		s = grown[:copy(grown, s)]
	}
	return append(s, v)
}

// ArenaGrab returns a pointer to a zeroed T from the engine's arena
// slab named tag, or new(T) when the engine has no arena. Each tag must
// always be used with the same type.
func ArenaGrab[T any](e *Engine, tag string) *T {
	if e == nil || e.arena == nil {
		return new(T)
	}
	return slabFor[T](e.arena, tag).get()
}

// --- typed slice pool ------------------------------------------------------

// slicePool hands out []T by capacity class: classes[c] serves the
// requests of n in (2^(c-1), 2^c].
type slicePool[T any] struct {
	classes []sliceClass[T]
}

// sliceClass holds every slot one class has allocated, in the order
// requests first needed them; next is the cursor of the current run.
type sliceClass[T any] struct {
	all  [][]T
	next int
}

func (p *slicePool[T]) reset() {
	for i := range p.classes {
		p.classes[i].next = 0
	}
}

func (p *slicePool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	for len(p.classes) <= c {
		p.classes = append(p.classes, sliceClass[T]{})
	}
	cl := &p.classes[c]
	if cl.next == len(cl.all) {
		cl.all = append(cl.all, make([]T, n))
		cl.next++
		return cl.all[cl.next-1]
	}
	s := cl.all[cl.next]
	if cap(s) < n {
		s = make([]T, n, 1<<c)
		cl.all[cl.next] = s
	}
	cl.next++
	s = s[:n]
	clear(s)
	return s
}

func slicePoolFor[T any](a *Arena, tag string) *slicePool[T] {
	if p, ok := a.pools[tag]; ok {
		sp, ok := p.(*slicePool[T])
		if !ok {
			panic("sim: arena tag " + tag + " reused with a different element type")
		}
		return sp
	}
	sp := &slicePool[T]{}
	a.pools[tag] = sp
	return sp
}

// --- typed struct slab -----------------------------------------------------

// A slab's blocks grow from firstSlabBlock to slabBlockSize T, doubling,
// so a type grabbed once per run (a run's Sim, channel or root
// recorder) takes a small block, and one grabbed per node or per frame
// soon reaches full-size blocks. Blocks are never freed; reset rewinds
// the cursor to the first block.
const (
	firstSlabBlock = 8
	slabBlockSize  = 256
)

type structSlab[T any] struct {
	blocks [][]T
	block  int
	idx    int
}

func (p *structSlab[T]) reset() { p.block, p.idx = 0, 0 }

func (p *structSlab[T]) get() *T {
	if p.block >= len(p.blocks) {
		size := firstSlabBlock
		if n := len(p.blocks); n > 0 {
			size = min(2*len(p.blocks[n-1]), slabBlockSize)
		}
		p.blocks = append(p.blocks, make([]T, size))
	}
	b := p.blocks[p.block]
	ptr := &b[p.idx]
	var zero T
	*ptr = zero
	p.idx++
	if p.idx == len(b) {
		p.block++
		p.idx = 0
	}
	return ptr
}

func slabFor[T any](a *Arena, tag string) *structSlab[T] {
	if p, ok := a.pools[tag]; ok {
		sl, ok := p.(*structSlab[T])
		if !ok {
			panic("sim: arena tag " + tag + " reused with a different type")
		}
		return sl
	}
	sl := &structSlab[T]{}
	a.pools[tag] = sl
	return sl
}
