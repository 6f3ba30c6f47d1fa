package experiment

import (
	"math/rand"
	"time"
)

// Lifetime quantifies the paper's §4.2.1 scalability argument: "large
// variations in the energy conserved at different nodes limits the
// lifetime of the network. The nodes close to the root that have higher
// ranks will run out of energy faster than the others." Every non-root
// node gets a small battery; the experiment measures the time until the
// first battery death under each ESSAT protocol (plus SPAN, whose
// backbone dies almost immediately at this scale).
//
// The battery is sized so deaths occur within the run: at a 5 Hz base
// rate a high-rank NTS-SS node draws a few milliwatts average, so a
// budget of a fraction of a joule dies within tens of seconds.
func Lifetime(o Options, batteryJ float64) (*Figure, error) {
	o = o.normalized()
	if batteryJ <= 0 {
		batteryJ = 0.5
	}
	protos := []Protocol{DTSSS, STSSS, NTSSS, SPAN}
	results, work, err := runMatrix(o, len(protos), func(i int, seed int64) Scenario {
		sc := o.scenario(protos[i], seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, 5, 1, 10*time.Second)
		sc.BatteryJ = batteryJ
		// Failure detection on: survivors must route around the dead.
		sc.FailureThreshold = 3
		return sc
	})
	if err != nil {
		return nil, err
	}
	first := Series{Name: "first death (s)"}
	deaths := Series{Name: "deaths by run end"}
	for i := range protos {
		x := float64(i + 1)
		first.Points = append(first.Points, pointFrom(x, results[i], func(r *Result) float64 {
			if r.FirstDeath == 0 {
				return o.Duration.Seconds() // survived the whole run
			}
			return r.FirstDeath.Seconds()
		}))
		deaths.Points = append(deaths.Points, pointFrom(x, results[i],
			func(r *Result) float64 { return float64(r.BatteryDeaths) }))
	}
	return &Figure{
		ID:     lifetimeInfo.ID,
		Title:  lifetimeInfo.Title,
		XLabel: "protocol",
		YLabel: "first battery death (s) / deaths",
		Series: []Series{first, deaths},
		Work:   work,
		Notes: []string{
			"batteries are deliberately tiny so deaths occur within the run; the paper's",
			"claim is about the ORDER: rank-skewed protocols lose their first node sooner",
		},
	}, nil
}
