package dynamics

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/topology"
)

// The listed injector kinds.
const (
	KindFail     = "fail"
	KindStop     = "stop"
	KindCrash    = "crash"
	KindLinkLoss = "linkloss"
	KindBurst    = "burst"
)

// --- permanent failure -----------------------------------------------------

// fail kills one node for good at At (§4.3): the pinned Node, or else a
// victim drawn now, at build, from the engine's rng. A pin on the root
// does nothing.
func fail(h Host, p Params, _ *rand.Rand, _ int) error {
	var v topology.NodeID
	if p.Node == nil {
		v = h.Victim()
	} else if v = topology.NodeID(*p.Node); v == h.Root() {
		return nil
	}
	if v >= 0 {
		h.Eng().Schedule(p.At, func() { h.Kill(v) })
	}
	return nil
}

// --- query stop ------------------------------------------------------------

// stop deregisters Query on every member at At, shrinking the workload.
// RemoveQuery reaches crashed nodes too, so a node that recovers later
// does not resume reporting a stopped query. Stopping a query the run
// never registered is harmless.
func stop(h Host, p Params, _ *rand.Rand, _ int) error {
	q := p.Query
	h.Eng().Schedule(p.At, func() { h.RemoveQuery(q) })
	return nil
}

// --- crash/recovery --------------------------------------------------------

// checkCrash validates a crash schedule: an outage and a victim count
// that are not negative (a zero count means one victim).
func checkCrash(p Params) error {
	if p.Count < 0 {
		return fmt.Errorf("dynamics/crash: negative victim count %d", p.Count)
	}
	if p.Duration < 0 {
		return fmt.Errorf("dynamics/crash: negative outage %v", p.Duration)
	}
	return nil
}

// crash takes Count victims down at staggered times from At and, when
// Duration is positive, brings each back after that outage. Victims are
// seed-driven non-root members unless Node pins one.
func crash(h Host, p Params, rng *rand.Rand, _ int) error {
	if p.Count == 0 {
		p.Count = 1
	}
	victims := pickVictims(h, p, rng, p.Count)
	for i, v := range victims {
		v := v
		// Stagger successive crashes by up to one outage (or 1 s for
		// permanent crashes) so a multi-victim schedule is not one
		// simultaneous cliff.
		stagger := time.Second
		if p.Duration > 0 {
			stagger = p.Duration
		}
		at := p.At
		if i > 0 {
			at += time.Duration(rng.Int63n(int64(stagger) + 1))
		}
		h.Eng().Schedule(at, func() { h.Crash(v) })
		if p.Duration > 0 {
			h.Eng().Schedule(at+p.Duration, func() { h.Recover(v) })
		}
	}
	return nil
}

// --- per-link loss ramp ----------------------------------------------------

// checkLinkLoss validates a loss ramp: a step count that is not
// negative (a zero count means 8 steps), a positive episode, and a peak
// drop probability in (0,1).
func checkLinkLoss(p Params) error {
	if p.Steps < 0 {
		return fmt.Errorf("dynamics/linkloss: negative step count %d", p.Steps)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("dynamics/linkloss: episode duration must be positive, got %v", p.Duration)
	}
	if p.Peak <= 0 || p.Peak >= 1 {
		return fmt.Errorf("dynamics/linkloss: peak must be in (0,1), got %g", p.Peak)
	}
	return nil
}

// linkLoss degrades every link incident to a focal node with a
// triangular loss profile: starting at At the drop probability climbs
// in Steps equal adjustments to Peak at the episode midpoint, then
// falls back to zero by At+Duration. The focal node is seed-driven
// unless Node pins one.
func linkLoss(h Host, p Params, rng *rand.Rand, _ int) error {
	if p.Steps == 0 {
		p.Steps = 8
	}
	victims := pickVictims(h, p, rng, 1)
	if len(victims) == 0 {
		return fmt.Errorf("dynamics/linkloss: no focal node available")
	}
	focal := victims[0]
	neighbors := h.Neighbors(focal)
	steps := p.Steps
	setAll := func(loss float64) {
		for _, nb := range neighbors {
			h.SetLinkLoss(focal, nb, loss)
			h.SetLinkLoss(nb, focal, loss)
		}
	}
	// Triangular profile: steps adjustments spread across the episode,
	// peaking at the midpoint, plus a final clear at the episode end.
	mid := float64(steps+1) / 2
	for i := 1; i <= steps; i++ {
		at := p.At + p.Duration*time.Duration(i)/time.Duration(steps+1)
		frac := 1 - math.Abs(float64(i)-mid)/mid
		loss := p.Peak * frac
		h.Eng().Schedule(at, func() { setAll(loss) })
	}
	h.Eng().Schedule(p.At+p.Duration, func() { setAll(0) })
	return nil
}

// --- traffic burst ---------------------------------------------------------

// burstIDBase keeps burst query IDs out of the way of scenario queries
// and flows (which use small non-negative and negative IDs); each burst
// injector owns a stride of burstIDStride IDs above it.
const (
	burstIDBase   = 1 << 20
	burstIDStride = 4096
)

// checkBurst validates a burst: a positive length and report period, a
// period no longer than the burst, and a query count that is not
// negative (zero means one) and no more than one burst's stride of the
// ID space.
func checkBurst(p Params) error {
	if p.Queries < 0 {
		return fmt.Errorf("dynamics/burst: negative query count %d", p.Queries)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("dynamics/burst: burst length must be positive, got %v", p.Duration)
	}
	if p.Period <= 0 {
		return fmt.Errorf("dynamics/burst: report period must be positive, got %v", p.Period)
	}
	if p.Queries > burstIDStride {
		// Each burst owns a stride of the burst ID space; more queries
		// than that would collide with the next burst's.
		return fmt.Errorf("dynamics/burst: at most %d queries per burst, got %d", burstIDStride, p.Queries)
	}
	if p.Period > p.Duration {
		return fmt.Errorf("dynamics/burst: period %v exceeds burst length %v", p.Period, p.Duration)
	}
	return nil
}

// burst registers Queries extra queries at Period on every live member
// at time At and deregisters them Duration later: the fire-monitor
// surge from the paper's introduction, as a reusable injector. Phases
// are seed-driven within the first period after At.
func burst(h Host, p Params, rng *rand.Rand, index int) error {
	if p.Queries == 0 {
		p.Queries = 1
	}
	for i := 0; i < p.Queries; i++ {
		id := query.ID(burstIDBase + index*burstIDStride + i)
		phase := p.At + time.Duration(rng.Int63n(int64(p.Period)))
		spec := query.Spec{ID: id, Period: p.Period, Phase: phase, Class: 0}
		h.Eng().Schedule(p.At, func() {
			// Registration failures (ID collision with a scenario query)
			// cannot happen by ID-space construction; ignore defensively.
			_ = h.AddQuery(spec)
		})
		h.Eng().Schedule(p.At+p.Duration, func() { h.RemoveQuery(id) })
	}
	return nil
}
