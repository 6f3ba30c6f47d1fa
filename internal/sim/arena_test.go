package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// TestResetMatchesFreshEngine replays the DeterminismAcrossRuns trace
// shape on a reset engine and checks it is identical to a fresh one:
// clock, rng stream, sequence numbers, and event order all rewind.
func TestResetMatchesFreshEngine(t *testing.T) {
	trace := func(e *Engine) []time.Duration {
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				jitter := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
				e.After(jitter+time.Microsecond, step)
			}
		}
		e.Schedule(0, step)
		drain(e)
		return out
	}
	fresh := trace(New(42))
	e := New(7) // different seed, then reset to 42
	trace(e)
	e.Reset(42)
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("Reset left now=%v pending=%d processed=%d, want zeros",
			e.Now(), e.Pending(), e.Processed())
	}
	reused := trace(e)
	if len(fresh) != len(reused) {
		t.Fatalf("trace lengths differ: fresh %d vs reset %d", len(fresh), len(reused))
	}
	for i := range fresh {
		if fresh[i] != reused[i] {
			t.Fatalf("trace diverges at %d: fresh %v vs reset %v", i, fresh[i], reused[i])
		}
	}
}

// TestResetDrainsPendingEvents resets an engine with events parked on
// wheel levels 0 to 4, and checks none of them fire and all structs are
// recycled through the freelist.
func TestResetDrainsPendingEvents(t *testing.T) {
	e := New(1)
	fired := 0
	fn := func() { fired++ }
	delays := []time.Duration{
		50 * time.Microsecond, // level 0
		10 * time.Millisecond, // level 1
		5 * time.Second,       // level 2
		30 * time.Minute,      // level 3
		3 * time.Hour,         // level 4
	}
	for _, d := range delays {
		e.Schedule(d, fn)
	}
	e.Reset(1)
	if got := len(e.free); got != len(delays) {
		t.Fatalf("freelist holds %d events after Reset, want %d", got, len(delays))
	}
	if n := drain(e); n != 0 || fired != 0 {
		t.Fatalf("reset engine fired %d events (%d callbacks), want 0", n, fired)
	}
	// The recycled structs must come back clean.
	e.Schedule(time.Second, fn)
	drain(e)
	if fired != 1 {
		t.Fatalf("post-reset schedule fired %d times, want 1", fired)
	}
}

// TestSteadyStateZeroAllocAcrossResets is the cross-run extension of
// TestSteadyStateZeroAlloc: once the freelist and arena slabs are warm,
// an entire Reset → populate → drain cycle — the shape of one sweep
// point in a repeated-spec sweep — must not allocate.
func TestSteadyStateZeroAllocAcrossResets(t *testing.T) {
	e := New(1)
	e.SetArena(NewArena())
	fn := func() {}
	cycle := func() {
		e.Reset(1)
		for i := 0; i < 64; i++ {
			_ = ArenaSlice[uint64](e, "test.slice", 32)
			_ = ArenaGrab[Event](e, "test.slab")
			e.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		drain(e)
	}
	cycle() // warm-up: populate freelist, slabs, and backing arrays
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("steady-state Reset+run cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestArenaSliceZeroedAndSized checks arena slices come back zeroed
// and capped at their length, carved one after another from a chunk:
// an append past a slice moves it to the heap instead of writing into
// the next request's elements, an empty request takes nothing, and a
// reset hands the same memory out again from the first chunk.
func TestArenaSliceZeroedAndSized(t *testing.T) {
	e := New(1)
	e.SetArena(NewArena())
	zeroed := func(what string, s []int) {
		t.Helper()
		for i, v := range s {
			if v != 0 {
				t.Fatalf("%s not zeroed at %d: %d", what, i, v)
			}
		}
	}
	if z := ArenaSlice[int](e, "t", 0); z != nil {
		t.Fatalf("empty request returned %v, want nil", z)
	}
	a := ArenaSlice[int](e, "t", 8)
	b := ArenaSlice[int](e, "t", 5)
	if len(a) != 8 || cap(a) != 8 || len(b) != 5 || cap(b) != 5 {
		t.Fatalf("len/cap = %d/%d and %d/%d, want 8/8 and 5/5", len(a), cap(a), len(b), cap(b))
	}
	if unsafe.Pointer(&b[0]) != unsafe.Add(unsafe.Pointer(&a[0]), 8*unsafe.Sizeof(a[0])) {
		t.Fatal("the second request was not carved right after the first")
	}
	for i := range a {
		a[i] = i + 1
	}
	for i := range b {
		b[i] = -1
	}
	grown := append(a, 99)
	if &grown[0] == &a[0] || b[0] != -1 {
		t.Fatal("an append past a slice's length reached its neighbour")
	}
	e.Reset(1)
	a2 := ArenaSlice[int](e, "t", 8)
	b2 := ArenaSlice[int](e, "t", 5)
	if &a2[0] != &a[0] || &b2[0] != &b[0] {
		t.Fatal("the same requests after Reset did not reuse the same memory")
	}
	zeroed("reused slice", a2)
	zeroed("reused slice", b2)
	// A request larger than a whole chunk gets a chunk of its own size.
	n := 2 * maxChunkBytes / int(unsafe.Sizeof(0))
	big := ArenaSlice[int](e, "t", n)
	if len(big) != n || cap(big) != n {
		t.Fatalf("len/cap = %d/%d, want %d", len(big), cap(big), n)
	}
	zeroed("oversized slice", big)
}

// TestArenaSliceReorderedRequestsSettle: once a pool has met a set of
// requests, runs that ask for the same sizes, in the same or another
// order, allocate nothing. Chunks are appended and never replaced, so
// an order that ran before walks the same chunks again.
func TestArenaSliceReorderedRequestsSettle(t *testing.T) {
	e := New(1)
	e.SetArena(NewArena())
	orders := [][]int{{3, 40, 7, 100, 5000}, {5000, 100, 7, 40, 3}, {40, 5000, 3, 7, 100}}
	run := func() {
		for _, order := range orders {
			e.Reset(1)
			for _, n := range order {
				if s := ArenaSlice[int](e, "t", n); len(s) != n || cap(s) != n {
					t.Fatalf("order %v: len/cap %d/%d for a request of %d", order, len(s), cap(s), n)
				}
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("settled runs in three orders allocate %.1f objects/op, want 0", allocs)
	}
}

// TestArenaRandReseedsLikeFresh: an arena stream draws exactly what a
// fresh rand.New(rand.NewSource(seed)) draws, on its first run and
// reseeded on later ones, and a warm run's streams allocate nothing.
func TestArenaRandReseedsLikeFresh(t *testing.T) {
	e := New(1)
	e.SetArena(NewArena())
	seeds := []int64{7, -3, 1 << 40}
	run := func() {
		e.Reset(1)
		for _, seed := range seeds {
			r, fresh := ArenaRand(e, "t", seed), rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				if got, want := r.Int63(), fresh.Int63(); got != want {
					t.Fatalf("seed %d draw %d: %d, fresh source %d", seed, i, got, want)
				}
			}
		}
	}
	run()
	first := ArenaRand(e, "u", 1)
	run()
	e.Reset(1)
	if ArenaRand(e, "u", 2) != first {
		t.Fatal("the first request after Reset did not reuse the first stream")
	}
	warm := func() {
		e.Reset(1)
		for _, seed := range seeds {
			ArenaRand(e, "t", seed)
		}
	}
	if allocs := testing.AllocsPerRun(10, warm); allocs != 0 {
		t.Errorf("warm streams allocate %.1f objects/op, want 0", allocs)
	}
}

// TestArenaAppendReusesGrowth checks ArenaAppend keeps the built-in
// append's contents while growing from the arena: a warm run that grows
// a slice the same way as the run before allocates nothing, and without
// an arena it still appends.
func TestArenaAppendReusesGrowth(t *testing.T) {
	e := New(1)
	e.SetArena(NewArena())
	var s []int
	fill := func() {
		e.Reset(1)
		s = nil
		for i := 0; i < 20; i++ {
			s = ArenaAppend(e, "t", s, i)
		}
	}
	fill()
	for i, v := range s {
		if v != i {
			t.Fatalf("s[%d] = %d, want %d", i, v, i)
		}
	}
	if allocs := testing.AllocsPerRun(10, fill); allocs != 0 {
		t.Errorf("warm regrowth allocates %.1f objects/op, want 0", allocs)
	}
	var plain []int
	for i := 0; i < 5; i++ {
		plain = ArenaAppend(New(1), "t", plain, i)
	}
	if len(plain) != 5 || plain[4] != 4 {
		t.Fatalf("fallback append = %v, want [0 1 2 3 4]", plain)
	}
}

// TestArenaGrabZeroedAcrossReset checks slab pointers are recycled
// zeroed after a reset, and distinct within a run.
func TestArenaGrabZeroedAcrossReset(t *testing.T) {
	type rec struct{ a, b int }
	e := New(1)
	e.SetArena(NewArena())
	p1 := ArenaGrab[rec](e, "t")
	p2 := ArenaGrab[rec](e, "t")
	if p1 == p2 {
		t.Fatal("two grabs in one run returned the same pointer")
	}
	p1.a, p1.b = 3, 4
	e.Reset(1)
	q := ArenaGrab[rec](e, "t")
	if q != p1 {
		t.Fatal("first grab after Reset did not reuse the slab slot")
	}
	if q.a != 0 || q.b != 0 {
		t.Fatalf("recycled slab slot not zeroed: %+v", *q)
	}
}

// TestArenaGrabBlocksGrowThenHold: a slab's blocks double from 8
// structs up to 256 and stay there, however many blocks a run takes
// (here 100 full-size ones), and a second run of the same grabs reuses
// them all without allocating.
func TestArenaGrabBlocksGrowThenHold(t *testing.T) {
	type rec struct{ a int }
	e := New(1)
	e.SetArena(NewArena())
	const grabs = 8 + 16 + 32 + 64 + 128 + 100*256
	run := func() {
		e.Reset(1)
		for i := 0; i < grabs; i++ {
			ArenaGrab[rec](e, "t")
		}
	}
	run()
	sl := e.arena.pools["t"].(*structSlab[rec])
	if len(sl.blocks) != 105 {
		t.Fatalf("%d blocks, want 105", len(sl.blocks))
	}
	for i, b := range sl.blocks {
		want := 256
		if i < 5 {
			want = 8 << i
		}
		if len(b) != want {
			t.Fatalf("block %d holds %d structs, want %d", i, len(b), want)
		}
	}
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Errorf("a repeated run of grabs allocates %.0f times, want 0", allocs)
	}
}

// TestArenaFallbackWithoutArena checks the helpers degrade to plain
// allocation when no arena is attached (and on a nil engine).
func TestArenaFallbackWithoutArena(t *testing.T) {
	e := New(1)
	s := ArenaSlice[int](e, "t", 4)
	if len(s) != 4 {
		t.Fatalf("len = %d, want 4", len(s))
	}
	if p := ArenaGrab[int](e, "t"); p == nil || *p != 0 {
		t.Fatal("ArenaGrab fallback returned nil or non-zero")
	}
	if s := ArenaSlice[int](nil, "t", 4); len(s) != 4 {
		t.Fatal("nil-engine ArenaSlice fallback broken")
	}
}
