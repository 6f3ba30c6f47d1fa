package sim

import (
	"math/rand"
	"unsafe"
)

// Arena is a per-run memory arena: a set of typed pools that are
// *reset*, not freed, between runs. A sweep that replays the same (or a
// similar) scenario shape through one engine reaches steady-state zero
// heap growth across runs: the first run populates the pools, and every
// later run re-slices the same backing memory. A single run gains too:
// its objects come from a few large chunks instead of one heap object
// each, and a run that resets its engine part-way (the setup flood
// before a run) builds its second half in the first half's memory.
//
// An Arena is attached to an Engine (Engine.SetArena); layers that hold
// the engine obtain memory through the package-level generics
// ArenaSlice, ArenaAppend, ArenaGrab and ArenaRand, which fall back to
// plain make/new when no arena is attached.
//
// Ownership rule: memory handed out by an arena is valid until the next
// Engine.Reset. Resetting invalidates every slice and pointer from the
// previous run — callers must treat a reset like the end of the
// process for per-run state. Returned memory is always zeroed, and a
// returned Rand is freshly seeded, so an arena-backed run is
// bit-identical to a make/new-backed one.
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
// A pool carves requests from its chunks in turn, bump-pointer style,
// and a reset rewinds it to the first chunk, so a repeated run walks
// the same chunks in the same order and allocates nothing. A request
// that does not fit in what is left of the current chunk moves on to
// the next chunk that holds it, or appends a new one; chunks are never
// replaced, so runs of another shape or order settle too. A request for
// nothing takes nothing. The slice is capped at its length: an append
// past it moves to the heap and can never write into the next
// request's elements.
func ArenaSlice[T any](e *Engine, tag string, n int) []T {
	if e == nil || e.arena == nil {
		return make([]T, n)
	}
	return poolFor[slicePool[T]](e.arena, tag).get(n)
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
	return poolFor[structSlab[T]](e.arena, tag).get()
}

// ArenaRand returns a random stream seeded with seed from the engine's
// arena pool named tag, or rand.New(rand.NewSource(seed)) when the
// engine has no arena. A pool hands its streams out in request order
// and reseeds them, which draws exactly what a fresh source would, so a
// warm run's streams cost no allocation (a source is about 5 KB).
func ArenaRand(e *Engine, tag string, seed int64) *rand.Rand {
	if e == nil || e.arena == nil {
		return rand.New(rand.NewSource(seed))
	}
	return poolFor[randPool](e.arena, tag).get(seed)
}

// poolFor returns a's pool named tag, creating an empty P on first use.
func poolFor[P any, PP interface {
	*P
	resettable
}](a *Arena, tag string) PP {
	if p, ok := a.pools[tag]; ok {
		pp, ok := p.(PP)
		if !ok {
			panic("sim: arena tag " + tag + " reused with a different type")
		}
		return pp
	}
	pp := PP(new(P))
	a.pools[tag] = pp
	return pp
}

// --- typed slice pool ------------------------------------------------------

// A pool's chunks grow from firstChunkBytes to maxChunkBytes, doubling,
// so a tag asked for a few elements per run takes a small chunk, and
// one asked for many (a per-node table at 10k nodes) leaves at most the
// tail of one bounded chunk unused. A request larger than the next
// chunk gets a chunk of exactly its size.
const (
	firstChunkBytes = 512
	maxChunkBytes   = 32 << 10
)

// slicePool hands out []T carved from chunks: the next request starts
// at element off of chunks[cur].
type slicePool[T any] struct {
	chunks [][]T
	cur    int
	off    int
}

func (p *slicePool[T]) reset() { p.cur, p.off = 0, 0 }

func (p *slicePool[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	for p.cur < len(p.chunks) && len(p.chunks[p.cur])-p.off < n {
		p.cur, p.off = p.cur+1, 0
	}
	if p.cur == len(p.chunks) {
		p.chunks = append(p.chunks, make([]T, max(n, p.nextChunkLen())))
	}
	s := p.chunks[p.cur][p.off : p.off+n : p.off+n]
	p.off += n
	clear(s)
	return s
}

// nextChunkLen is the length of the chunk the pool appends next: twice
// its last chunk's, from firstChunkBytes up to maxChunkBytes.
func (p *slicePool[T]) nextChunkLen() int {
	size := max(int(unsafe.Sizeof(*new(T))), 1)
	if len(p.chunks) == 0 {
		return max(firstChunkBytes/size, 1)
	}
	return min(2*len(p.chunks[len(p.chunks)-1]), max(maxChunkBytes/size, 1))
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

// --- random streams --------------------------------------------------------

// randPool keeps every stream it has handed out; the next request
// reseeds all[next].
type randPool struct {
	all  []*rand.Rand
	next int
}

func (p *randPool) reset() { p.next = 0 }

func (p *randPool) get(seed int64) *rand.Rand {
	if p.next == len(p.all) {
		p.all = append(p.all, rand.New(rand.NewSource(seed)))
	} else {
		p.all[p.next].Seed(seed)
	}
	p.next++
	return p.all[p.next-1]
}
