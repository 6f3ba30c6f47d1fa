package core

import (
	"testing"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/sim"
)

// sizedFixture is shaperFixture with Safe Sleep's tables sized for
// queries × children, on the heap or on an arena.
func sizedFixture(queries, children int, arena bool) (*fakeEnv, *SafeSleep) {
	eng := sim.New(1)
	if arena {
		eng.SetArena(sim.NewArena())
	}
	r := radio.New(eng, radio.Config{})
	ss := NewSafeSleep(eng, r, SafeSleepOptions{Disabled: true, Queries: queries, Children: children})
	return &fakeEnv{eng: eng, self: 100, rank: 1, maxRank: 3, ranks: map[query.NodeID]int{}}, ss
}

func childIDs(k int) []query.NodeID {
	out := make([]query.NodeID, k)
	for i := range out {
		out[i] = query.NodeID(i + 1)
	}
	return out
}

// TestDTSChildTableSizedByChildren: QueryAdded gives each query's child
// table exactly one row per child, so a leaf reserves none.
func TestDTSChildTableSizedByChildren(t *testing.T) {
	for _, arena := range []bool{false, true} {
		for _, k := range []int{0, 1, 3, 8, 11} {
			env, ss := sizedFixture(1, k, arena)
			d := NewDTS(env, ss, false)
			d.QueryAdded(testSpec, childIDs(k))
			st := d.state(testSpec.ID)
			if len(st.children) != k || cap(st.children) != k {
				t.Errorf("arena=%t k=%d: child table len %d cap %d, want %d/%d",
					arena, k, len(st.children), cap(st.children), k, k)
			}
		}
	}
}

// TestSafeSleepRowsDoNotRegrow registers a node's queries through every
// shaper and checks Safe Sleep's send and receive rows, and the
// shaper's per-query table, fill their reserved capacity exactly: a
// table that had regrown would have more capacity than rows.
func TestSafeSleepRowsDoNotRegrow(t *testing.T) {
	shapers := map[string]func(Env, *SafeSleep) query.Shaper{
		"NTS": func(e Env, ss *SafeSleep) query.Shaper { return NewNTS(e, ss) },
		"STS": func(e Env, ss *SafeSleep) query.Shaper { return NewSTS(e, ss, 0, false) },
		"DTS": func(e Env, ss *SafeSleep) query.Shaper { return NewDTS(e, ss, false) },
	}
	perQuery := func(sh query.Shaper) (int, int) {
		switch s := sh.(type) {
		case *Static:
			return len(s.specs), cap(s.specs)
		case *DTS:
			return len(s.q), cap(s.q)
		}
		panic("unknown shaper")
	}
	const queries = 3
	for name, mk := range shapers {
		for _, arena := range []bool{false, true} {
			for _, k := range []int{0, 1, 4} {
				env, ss := sizedFixture(queries, k, arena)
				sh := mk(env, ss)
				for q := 1; q <= queries; q++ {
					spec := query.Spec{ID: query.ID(q), Period: time.Second, Phase: time.Duration(q) * 100 * time.Millisecond, Class: q}
					sh.QueryAdded(spec, childIDs(k))
				}
				if len(ss.nextSend) != queries || cap(ss.nextSend) != queries {
					t.Errorf("%s arena=%t k=%d: send rows len %d cap %d, want %d/%d",
						name, arena, k, len(ss.nextSend), cap(ss.nextSend), queries, queries)
				}
				if want := queries * k; len(ss.nextRecv) != want || cap(ss.nextRecv) != want {
					t.Errorf("%s arena=%t k=%d: receive rows len %d cap %d, want %d/%d",
						name, arena, k, len(ss.nextRecv), cap(ss.nextRecv), want, want)
				}
				if n, c := perQuery(sh); n != queries || c != queries {
					t.Errorf("%s arena=%t k=%d: per-query table len %d cap %d, want %d/%d",
						name, arena, k, n, c, queries, queries)
				}
			}
		}
	}
}
