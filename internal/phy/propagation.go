package phy

import (
	"fmt"
	"math"

	"github.com/essat/essat/internal/registry"
)

// The listed propagation models. Disc is the unit-disc channel of
// the paper's evaluation (the default); the others model the lossy
// gray-zone links real deployments measure: log-normal shadowing and a
// two-radius disc with a probabilistic outer band.
const (
	Disc      = "disc"
	Shadowing = "shadowing"
	DualDisc  = "dual-disc"
)

// Propagation decides which transmissions a receiver can decode. A
// model is consulted twice: MaxRange bounds the neighbor-candidate
// graph at build time (topology's spatial hash), and DeliveryProb gives
// the per-link decode probability the channel draws against on every
// otherwise-successful delivery. Implementations must be pure functions
// of their arguments so runs stay deterministic: all randomness lives
// in the channel's single rng draw.
type Propagation interface {
	// MaxRange returns a conservative radius, given the nominal
	// communication range, beyond which delivery probability is
	// negligible. Topology builds neighbor candidates from it; a pair
	// farther apart never hears each other at all.
	MaxRange(nominal float64) float64
	// DeliveryProb returns the probability in [0,1] that a frame over a
	// link of length dist is decoded, given the nominal range. The
	// channel skips its rng draw when the result is exactly 0 or 1, so
	// models with hard regions (disc everywhere, dual-disc inside the
	// inner radius) consume no randomness there.
	DeliveryProb(dist, nominal float64) float64
}

// PropagationBuilder constructs a model from its knobs. Builders must
// reject unknown parameter keys so typos in scenario files fail loudly.
type PropagationBuilder func(params map[string]float64) (Propagation, error)

// propagations lists every model in presentation order.
var propagations = registry.Table[string, PropagationBuilder]{
	{Name: Disc, Model: newDisc},
	{Name: Shadowing, Model: newShadowing},
	{Name: DualDisc, Model: newDualDisc},
}

// NewPropagation builds the model listed under name with the given
// knobs. An empty name selects disc, the paper's unit-disc channel.
func NewPropagation(name string, params map[string]float64) (Propagation, error) {
	if name == "" {
		name = Disc
	}
	b, ok := propagations.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("phy: unknown propagation model %q (registered: %v)", name, PropagationNames())
	}
	return b(params)
}

// PropagationNames lists every model in presentation order.
func PropagationNames() []string { return propagations.Names() }

// IsDisc reports whether p is the built-in unit-disc model (or nil, its
// shorthand). Fast paths key on the model's type, so a custom
// Propagation with disc-like behaviour still gets its DeliveryProb
// consulted.
func IsDisc(p Propagation) bool {
	if p == nil {
		return true
	}
	_, ok := p.(discModel)
	return ok
}

// discModel is the unit-disc channel: every frame within the nominal
// range is decoded, nothing beyond it. No params. Because MaxRange
// equals the nominal range, the neighbor-candidate graph already IS the
// deliverable set and the channel bypasses the per-delivery verdict
// entirely — the refactor costs the default configuration nothing.
type discModel struct{}

func newDisc(params map[string]float64) (Propagation, error) {
	r := registry.ReadParams(params)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("phy/disc: %w", err)
	}
	return discModel{}, nil
}

func (discModel) MaxRange(nominal float64) float64 { return nominal }

func (discModel) DeliveryProb(dist, nominal float64) float64 {
	if dist <= nominal {
		return 1
	}
	return 0
}

// shadowingModel is the log-normal shadowing channel: the decode margin
// at distance d is 10·pathloss·log10(R/d) dB (zero at the nominal range
// R, where delivery is a coin flip), perturbed by zero-mean Gaussian
// shadowing of standard deviation sigma dB, so
//
//	PDR(d) = Φ(10·n·log10(R/d) / σ).
//
// This produces the measured gray zone: near-perfect links well inside
// R, a wide band of intermediate-quality links around it, and a long
// unreliable tail beyond. Knobs: "sigma" (dB, default 4) and "pathloss"
// (exponent n, default 3).
type shadowingModel struct {
	sigma, pathloss float64
	maxFactor       float64 // MaxRange = maxFactor · nominal
}

func newShadowing(params map[string]float64) (Propagation, error) {
	r := registry.ReadParams(params)
	m := shadowingModel{
		sigma:    r.Float("sigma", 4),
		pathloss: r.Float("pathloss", 3),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("phy/shadowing: %w", err)
	}
	if m.sigma <= 0 {
		return nil, fmt.Errorf("phy/shadowing: sigma must be positive, got %g", m.sigma)
	}
	if m.pathloss <= 0 {
		return nil, fmt.Errorf("phy/shadowing: pathloss must be positive, got %g", m.pathloss)
	}
	// Cut the candidate graph where PDR falls below 1%: a margin of
	// −2.3263·σ (the 1% normal quantile), i.e. d = R·10^(2.3263σ/(10n)).
	m.maxFactor = math.Pow(10, 2.3263*m.sigma/(10*m.pathloss))
	return m, nil
}

func (m shadowingModel) MaxRange(nominal float64) float64 {
	return nominal * m.maxFactor
}

func (m shadowingModel) DeliveryProb(dist, nominal float64) float64 {
	if dist <= 0 {
		return 1
	}
	margin := 10 * m.pathloss * math.Log10(nominal/dist)
	// Φ(margin/σ) via erfc for numerical stability in both tails.
	return 0.5 * math.Erfc(-margin/(m.sigma*math.Sqrt2))
}

// dualDiscModel is the two-radius approximation of the gray zone: links
// shorter than inner·R always decode, links beyond outer·R never do,
// and delivery probability falls linearly across the band between.
// Knobs: "inner" (fraction of R, default 0.7) and "outer" (fraction of
// R, default 1.25).
type dualDiscModel struct {
	inner, outer float64 // fractions of the nominal range
}

func newDualDisc(params map[string]float64) (Propagation, error) {
	r := registry.ReadParams(params)
	m := dualDiscModel{
		inner: r.Float("inner", 0.7),
		outer: r.Float("outer", 1.25),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("phy/dual-disc: %w", err)
	}
	if m.inner <= 0 || m.outer < m.inner {
		return nil, fmt.Errorf("phy/dual-disc: need 0 < inner <= outer, got inner %g, outer %g", m.inner, m.outer)
	}
	return m, nil
}

func (m dualDiscModel) MaxRange(nominal float64) float64 {
	return nominal * m.outer
}

func (m dualDiscModel) DeliveryProb(dist, nominal float64) float64 {
	in, out := m.inner*nominal, m.outer*nominal
	switch {
	case dist <= in:
		return 1
	case dist >= out:
		return 0
	default:
		return (out - dist) / (out - in)
	}
}
