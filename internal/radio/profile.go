package radio

import (
	"time"

	"github.com/essat/essat/internal/registry"
)

// The registered radio energy profiles. Paper is the ESSAT paper's §4.1
// cost model (the default); the others are real sensor-node radios from
// the WSN power-management literature: the CC1000 (MICA2) and the
// CC2420 (MICAZ/TelosB), whose very different transition costs shift
// where sleeping starts to pay off.
const (
	Paper  = "paper"
	CC1000 = "cc1000"
	CC2420 = "cc2420"
)

// EnergyProfile bundles one radio hardware's energy model: per-state
// power draw, the state-transition latencies, and the break-even time
// derived from both. Every consumer of radio energy — Safe Sleep's
// break-even rule, battery exhaustion, the lifetime estimates, and the
// auditor's energy-conservation invariant — reads a profile instead of
// package constants, so swapping hardware is one registry lookup.
type EnergyProfile struct {
	// Name is the registry key ("paper", "cc1000", "cc2420").
	Name string
	// Power is the per-state draw in watts.
	Power PowerProfile
	// TurnOnDelay is tOFF→ON and TurnOffDelay tON→OFF.
	TurnOnDelay, TurnOffDelay time.Duration
}

// Config returns the radio state-machine configuration (the transition
// latencies) for this hardware.
func (p EnergyProfile) Config() Config {
	return Config{TurnOnDelay: p.TurnOnDelay, TurnOffDelay: p.TurnOffDelay}
}

// BreakEven derives the profile's break-even time tBE: the minimum sleep
// length for which turning the radio off saves energy. Staying idle for
// t costs Pidle·t; a sleep cycle costs Ptrans·(tON+tOFF) plus
// Psleep·(t − tON − tOFF), so
//
//	tBE = (tON + tOFF) · (Ptrans − Psleep) / (Pidle − Psleep).
//
// Under the paper's equal-power assumption (Ptrans = Pidle) this reduces
// to tOFF→ON + tON→OFF, the §4.1 rule. A radio whose transition draw is
// below idle (the CC2420's regulator-limited startup) breaks even on
// much shorter gaps.
func (p EnergyProfile) BreakEven() time.Duration {
	t := p.TurnOnDelay + p.TurnOffDelay
	denom := p.Power.Idle - p.Power.Sleep
	if denom <= 0 {
		return t
	}
	ratio := (p.Power.Transition - p.Power.Sleep) / denom
	if ratio < 0 {
		ratio = 0
	}
	return time.Duration(float64(t) * ratio)
}

var profiles = registry.New[string, EnergyProfile]("radio energy profile")

// RegisterProfile adds p under its name. rank orders ProfileNames() for
// presentation (lower first); ties break by name. It panics on
// duplicates.
func RegisterProfile(rank int, p EnergyProfile) {
	profiles.Register(p.Name, rank, p)
}

// LookupProfile returns the profile registered under name.
func LookupProfile(name string) (EnergyProfile, bool) { return profiles.Lookup(name) }

// ProfileNames lists every registered profile in presentation order.
func ProfileNames() []string { return profiles.Names() }

func init() {
	// paper: the constants the harness has always used — the §4.1 model
	// with the 2.5 ms MICA2 wake-up the paper cites, Ptrans = Pidle, and
	// the CC1000-class draw of Mica2Power.
	RegisterProfile(10, EnergyProfile{
		Name:         Paper,
		Power:        Mica2Power(),
		TurnOnDelay:  2500 * time.Microsecond,
		TurnOffDelay: 500 * time.Microsecond,
	})
	// cc1000: the MICA2 radio from its datasheet at 3 V: 9.6 mA rx,
	// 25.4 mA tx at +5 dBm, 0.2 µA sleep, ~2 ms crystal/PLL startup
	// drawing roughly the rx current. tBE = 2.25 ms.
	RegisterProfile(20, EnergyProfile{
		Name: CC1000,
		Power: PowerProfile{
			Sleep:      6e-7,
			Idle:       0.0288,
			Rx:         0.0288,
			Tx:         0.0762,
			Transition: 0.0288,
		},
		TurnOnDelay:  2000 * time.Microsecond,
		TurnOffDelay: 250 * time.Microsecond,
	})
	// cc2420: the MICAZ/TelosB 802.15.4 radio at 3 V: 18.8 mA rx,
	// 17.4 mA tx at 0 dBm, ~1 µA power-down, and a voltage-regulator +
	// oscillator startup (~1.4 ms) that draws far less than listening —
	// so its derived break-even time (~124 µs) is an order of magnitude
	// below the paper radio's, and Safe Sleep sleeps through much
	// shorter gaps.
	RegisterProfile(30, EnergyProfile{
		Name: CC2420,
		Power: PowerProfile{
			Sleep:      3e-6,
			Idle:       0.0564,
			Rx:         0.0564,
			Tx:         0.0522,
			Transition: 0.0044,
		},
		TurnOnDelay:  1400 * time.Microsecond,
		TurnOffDelay: 200 * time.Microsecond,
	})
}
