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
	KindCrash    = "crash"
	KindLinkLoss = "linkloss"
	KindBurst    = "burst"
)

// --- crash/recovery --------------------------------------------------------

// crash takes Count victims down at staggered times from At and, when
// Duration is positive, brings each back after that outage. Victims are
// seed-driven non-root members unless Node pins one.
func crash(h Host, p Params, rng *rand.Rand, _ int) error {
	if p.At < 0 {
		return fmt.Errorf("dynamics/crash: negative start %v", p.At)
	}
	if p.Duration < 0 {
		return fmt.Errorf("dynamics/crash: negative outage %v", p.Duration)
	}
	if p.Count <= 0 {
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

// linkLoss degrades every link incident to a focal node with a
// triangular loss profile: starting at At the drop probability climbs
// in Steps equal adjustments to Peak at the episode midpoint, then
// falls back to zero by At+Duration. The focal node is seed-driven
// unless Node pins one.
func linkLoss(h Host, p Params, rng *rand.Rand, _ int) error {
	if p.At < 0 {
		return fmt.Errorf("dynamics/linkloss: negative start %v", p.At)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("dynamics/linkloss: episode duration must be positive, got %v", p.Duration)
	}
	if p.Peak <= 0 || p.Peak >= 1 {
		return fmt.Errorf("dynamics/linkloss: peak must be in (0,1), got %g", p.Peak)
	}
	if p.Steps <= 0 {
		p.Steps = 8
	}
	victims := pickVictims(h, p, rng, 1)
	if len(victims) == 0 {
		return fmt.Errorf("dynamics/linkloss: no focal node available")
	}
	focal := victims[0]
	neighbors := append([]topology.NodeID(nil), h.Neighbors(focal)...)
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

// burst registers Queries extra queries at Period on every live member
// at time At and deregisters them Duration later: the fire-monitor
// surge from the paper's introduction, as a reusable injector. Phases
// are seed-driven within the first period after At.
func burst(h Host, p Params, rng *rand.Rand, index int) error {
	if p.At < 0 {
		return fmt.Errorf("dynamics/burst: negative start %v", p.At)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("dynamics/burst: burst length must be positive, got %v", p.Duration)
	}
	if p.Period <= 0 {
		return fmt.Errorf("dynamics/burst: report period must be positive, got %v", p.Period)
	}
	if p.Queries <= 0 {
		p.Queries = 1
	}
	if p.Queries > burstIDStride {
		// Each burst owns a stride of the burst ID space; more queries
		// than that would collide with the next burst's.
		return fmt.Errorf("dynamics/burst: at most %d queries per burst, got %d", burstIDStride, p.Queries)
	}
	if p.Period > p.Duration {
		return fmt.Errorf("dynamics/burst: period %v exceeds burst length %v", p.Period, p.Duration)
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
