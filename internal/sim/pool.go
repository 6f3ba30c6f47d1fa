package sim

// TakeLast pops and returns the last element of *s, zeroing the vacated
// slot so the backing array does not pin it, or returns the zero value
// when the slice is empty. It is the shared take-from-freelist idiom of
// the simulator's object pools (frames, query intervals, relay
// messages, the shared Pool); callers compare against nil and allocate
// on a miss.
func TakeLast[T any](s *[]T) T {
	old := *s
	n := len(old)
	var zero T
	if n == 0 {
		return zero
	}
	v := old[n-1]
	old[n-1] = zero
	*s = old[:n-1]
	return v
}

// Pool is a freelist of T shared by every holder on one engine: the
// per-frame and per-report objects a station or agent takes and gives
// back (MAC queue items and headers, in-flight query reports). One pool
// per run holds only as many objects as the whole network ever has live
// at once; a freelist per node would hold each node's own peak, and the
// sum of those is about twice as many at 10,000 nodes.
//
// A Pool comes from ArenaPool and is reset with the arena: its objects
// are the arena's memory, valid until the next Engine.Reset.
type Pool[T any] struct {
	slab structSlab[T]
	free []*T
}

// ArenaPool returns the engine's shared pool of T named tag, or a new
// private pool when the engine has no arena. Each tag must always be
// used with the same type. Holders look the pool up once, at
// construction, and keep the pointer.
func ArenaPool[T any](e *Engine, tag string) *Pool[T] {
	if e == nil || e.arena == nil {
		return new(Pool[T])
	}
	return poolFor[Pool[T]](e.arena, tag)
}

// Get returns a zeroed T: a released one when the freelist has one,
// else a fresh one from the pool's slab.
func (p *Pool[T]) Get() *T {
	v := TakeLast(&p.free)
	if v == nil {
		v = p.slab.get()
	}
	return v
}

// Put zeroes v, dropping the references it holds, and returns it to the
// freelist. v must have come from p's Get and must not be used after.
func (p *Pool[T]) Put(v *T) {
	var zero T
	*v = zero
	p.free = append(p.free, v)
}

// usage counts the pool's slab: a fresh object is taken only when every
// earlier one is live, so Objects is also the most live at once.
func (p *Pool[T]) usage() TagUsage { return p.slab.usage() }

func (p *Pool[T]) reset() {
	p.slab.reset()
	clear(p.free)
	p.free = p.free[:0]
}
