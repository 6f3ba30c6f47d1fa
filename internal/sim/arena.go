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
// Requests are satisfied in first-run order: a repeated identical run
// re-issues the same sequence of (tag, n) requests and hits the same
// backing arrays, allocation-free. Callers ask for what they need, not
// a guess: a slot is reused while its capacity suffices, and a request
// for nothing takes no slot. A slot too small for a later request
// (different spec shape) is replaced by one rounded up to a power of
// two, so a sweep over varying shapes settles after a few replacements.
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

// slicePool hands out []T in request order. all holds every slice ever
// allocated under this tag, in the order the first run requested them;
// next is the cursor of the current run.
type slicePool[T any] struct {
	all  [][]T
	next int
}

func (p *slicePool[T]) reset() { p.next = 0 }

func (p *slicePool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	if p.next < len(p.all) {
		s := p.all[p.next]
		if cap(s) >= n {
			p.next++
			s = s[:n]
			clear(s)
			return s
		}
		s = make([]T, n, 1<<bits.Len(uint(n-1)))
		p.all[p.next] = s
		p.next++
		return s
	}
	s := make([]T, n)
	p.all = append(p.all, s)
	p.next++
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
