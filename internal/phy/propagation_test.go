package phy

import (
	"math"
	"testing"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

func newTestEngineTopo(t *testing.T) (*sim.Engine, *topology.Topology) {
	t.Helper()
	topo, err := topology.FromPositions(geom.LinePlacement(2, 100), 125)
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(1), topo
}

func TestPropagationRegistry(t *testing.T) {
	names := PropagationNames()
	want := []string{Disc, Shadowing, DualDisc}
	if len(names) < len(want) {
		t.Fatalf("PropagationNames() = %v, want at least %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("PropagationNames()[%d] = %q, want %q", i, names[i], w)
		}
	}
	if _, err := NewPropagation("warp", nil); err == nil {
		t.Error("unknown model did not error")
	}
	m, err := NewPropagation("", nil)
	if err != nil {
		t.Fatalf("empty name: %v", err)
	}
	if m.Name() != Disc {
		t.Errorf("empty name resolved to %q, want disc", m.Name())
	}
}

func TestPropagationUnknownParamsRejected(t *testing.T) {
	for _, name := range []string{Disc, Shadowing, DualDisc} {
		if _, err := NewPropagation(name, map[string]float64{"bogus": 1}); err == nil {
			t.Errorf("%s accepted unknown param", name)
		}
	}
}

func TestPropagationParamValidation(t *testing.T) {
	bad := []struct {
		model  string
		params map[string]float64
	}{
		{Shadowing, map[string]float64{"sigma": 0}},
		{Shadowing, map[string]float64{"sigma": -1}},
		{Shadowing, map[string]float64{"pathloss": 0}},
		{DualDisc, map[string]float64{"inner": 0}},
		{DualDisc, map[string]float64{"inner": 1.5, "outer": 1.0}},
	}
	for _, b := range bad {
		if _, err := NewPropagation(b.model, b.params); err == nil {
			t.Errorf("%s accepted %v", b.model, b.params)
		}
	}
}

func TestDiscModel(t *testing.T) {
	m, err := NewPropagation(Disc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MaxRange(125); got != 125 {
		t.Errorf("MaxRange(125) = %g, want 125", got)
	}
	if p := m.DeliveryProb(125, 125); p != 1 {
		t.Errorf("in-range prob = %g, want 1", p)
	}
	if p := m.DeliveryProb(125.01, 125); p != 0 {
		t.Errorf("out-of-range prob = %g, want 0", p)
	}
}

func TestShadowingModel(t *testing.T) {
	m, err := NewPropagation(Shadowing, map[string]float64{"sigma": 4, "pathloss": 3})
	if err != nil {
		t.Fatal(err)
	}
	// At the nominal range the decode margin is zero: a coin flip.
	if p := m.DeliveryProb(125, 125); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("prob at nominal range = %g, want 0.5", p)
	}
	// Monotone non-increasing in distance, bounded in [0,1].
	last := 1.0
	for d := 1.0; d < 400; d += 1 {
		p := m.DeliveryProb(d, 125)
		if p < 0 || p > 1 {
			t.Fatalf("prob(%g) = %g out of [0,1]", d, p)
		}
		if p > last+1e-12 {
			t.Fatalf("prob increased at %g: %g > %g", d, p, last)
		}
		last = p
	}
	// The candidate cutoff is where PDR ≈ 1%: just inside, the link must
	// still be plausible; the cutoff grows with sigma.
	max := m.MaxRange(125)
	if max <= 125 {
		t.Errorf("MaxRange = %g, want beyond the nominal range", max)
	}
	if p := m.DeliveryProb(max, 125); math.Abs(p-0.01) > 1e-3 {
		t.Errorf("prob at MaxRange = %g, want ~0.01", p)
	}
	wide, _ := NewPropagation(Shadowing, map[string]float64{"sigma": 8})
	if wide.MaxRange(125) <= max {
		t.Error("larger sigma did not widen MaxRange")
	}
}

func TestDualDiscModel(t *testing.T) {
	m, err := NewPropagation(DualDisc, map[string]float64{"inner": 0.6, "outer": 1.2})
	if err != nil {
		t.Fatal(err)
	}
	const r = 100.0
	if got := m.MaxRange(r); got != 120 {
		t.Errorf("MaxRange = %g, want 120", got)
	}
	if p := m.DeliveryProb(60, r); p != 1 {
		t.Errorf("inner prob = %g, want 1", p)
	}
	if p := m.DeliveryProb(120, r); p != 0 {
		t.Errorf("outer prob = %g, want 0", p)
	}
	if p := m.DeliveryProb(90, r); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("band midpoint prob = %g, want 0.5", p)
	}
}

func TestNewChannelConfigErrors(t *testing.T) {
	eng, topoDummy := newTestEngineTopo(t)
	if _, err := NewChannel(eng, topoDummy, Config{LossRate: 1}); err == nil {
		t.Error("loss rate 1 did not error")
	}
	ch, err := NewChannel(eng, topoDummy, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SetLinkLoss(0, 1, 1.0); err == nil {
		t.Error("link loss 1 did not error")
	}
	if err := ch.SetLinkLoss(0, 1, 0.5); err != nil {
		t.Errorf("valid link loss errored: %v", err)
	}
}
