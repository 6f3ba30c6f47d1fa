package radio

import (
	"testing"
	"time"
)

func TestProfileRegistry(t *testing.T) {
	names := ProfileNames()
	want := []string{Paper, CC1000, CC2420}
	if len(names) < len(want) {
		t.Fatalf("ProfileNames() = %v, want at least %v", names, want)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("ProfileNames()[%d] = %q, want %q", i, names[i], w)
		}
	}
	if _, ok := LookupProfile("vaporware"); ok {
		t.Error("unknown profile looked up")
	}
}

// TestPaperProfileMatchesLegacyConstants pins the default profile to
// the package's historical constants: swapping the hardcoded Mica2
// pair for the registry must not move a single number.
func TestPaperProfileMatchesLegacyConstants(t *testing.T) {
	p, ok := LookupProfile(Paper)
	if !ok {
		t.Fatal("paper profile not registered")
	}
	if p.Config() != mica2Config {
		t.Errorf("paper profile config %+v != %+v", p.Config(), mica2Config)
	}
	if p.Power != Mica2Power() {
		t.Errorf("paper profile power %+v != Mica2Power %+v", p.Power, Mica2Power())
	}
	// Under the equal-power assumption the derived break-even time is
	// exactly tOFF→ON + tON→OFF, the paper's §4.1 rule — and exactly
	// what Safe Sleep historically read from the radio config.
	if got, want := p.BreakEven(), mica2Config.BreakEven(); got != want {
		t.Errorf("paper break-even %v, want %v", got, want)
	}
}

// TestBreakEvenDerivation checks the energy-balance formula
// tBE = (tON+tOFF)·(Ptrans−Psleep)/(Pidle−Psleep) on each profile.
func TestBreakEvenDerivation(t *testing.T) {
	for _, name := range ProfileNames() {
		p, _ := LookupProfile(name)
		tr := p.TurnOnDelay + p.TurnOffDelay
		want := time.Duration(float64(tr) * (p.Power.Transition - p.Power.Sleep) / (p.Power.Idle - p.Power.Sleep))
		if got := p.BreakEven(); got != want {
			t.Errorf("%s: BreakEven() = %v, want %v", name, got, want)
		}
		if got := p.BreakEven(); got <= 0 || got > tr {
			t.Errorf("%s: BreakEven() = %v outside (0, %v] — transition draw above idle?", name, got, tr)
		}
	}
	// The CC2420's regulator-limited startup draws far below idle, so it
	// must break even an order of magnitude sooner than the paper radio.
	paper, _ := LookupProfile(Paper)
	cc2420, _ := LookupProfile(CC2420)
	if cc2420.BreakEven() >= paper.BreakEven()/10 {
		t.Errorf("cc2420 tBE %v not well below paper tBE %v", cc2420.BreakEven(), paper.BreakEven())
	}
}

func TestBreakEvenDegenerateProfiles(t *testing.T) {
	// Idle draw not above sleep: sleeping can never lose; fall back to
	// the transition-time bound rather than dividing by zero.
	p := EnergyProfile{
		Power:        PowerProfile{Sleep: 0.03, Idle: 0.03, Transition: 0.03},
		TurnOnDelay:  time.Millisecond,
		TurnOffDelay: time.Millisecond,
	}
	if got := p.BreakEven(); got != 2*time.Millisecond {
		t.Errorf("degenerate profile BreakEven() = %v, want 2ms", got)
	}
	// Transition cheaper than sleep clamps at zero, not negative.
	p.Power = PowerProfile{Sleep: 0.01, Idle: 0.03, Transition: 0.001}
	if got := p.BreakEven(); got != 0 {
		t.Errorf("clamped BreakEven() = %v, want 0", got)
	}
}
