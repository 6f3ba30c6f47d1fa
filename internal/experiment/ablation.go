package experiment

import (
	"math/rand"
	"time"
)

// The ablation drivers isolate the design choices DESIGN.md calls out:
// the Safe Sleep break-even guard, the shapers' early-report buffering,
// and the flood-vs-BFS tree construction. RobustnessLoss sweeps transient
// packet loss against the §4.3 maintenance mechanisms.

// AblationBreakEvenGuard compares DTS-SS with the Safe Sleep break-even
// guard enabled (tBE = the radio's real break-even time) against a naive
// scheduler that sleeps through any free gap (tBE = 0) on the same
// MICA2-like radio. Without the guard, short sleeps cost more energy than
// they save and late wake-ups turn into MAC retries.
func AblationBreakEvenGuard(o Options) (*Figure, error) {
	o = o.normalized()
	variants := []struct {
		name string
		tbe  time.Duration
	}{
		{"guarded (tBE=radio)", -1},
		{"naive (tBE=0)", 0},
	}
	rates := []float64{1, 3, 5}
	results, work, err := runMatrix(o, len(variants)*len(rates), func(i int, seed int64) Scenario {
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, rates[i%len(rates)], 1, 10*time.Second)
		sc.SSBreakEven = variants[i/len(rates)].tbe
		return sc
	})
	if err != nil {
		return nil, err
	}
	var series []Series
	for vi, v := range variants {
		s := Series{Name: v.name}
		for ri, rate := range rates {
			s.Points = append(s.Points, pointFrom(rate, results[vi*len(rates)+ri],
				func(r *Result) float64 { return r.DutyCycle * 100 }))
		}
		series = append(series, s)
	}
	return &Figure{
		ID:     ablationGuardInfo.ID,
		Title:  ablationGuardInfo.Title,
		XLabel: "base rate (Hz)",
		YLabel: "duty cycle (%)",
		Series: series,
		Work:   work,
	}, nil
}

// AblationBuffering compares DTS-SS with and without buffering early
// reports until their expected send time. Buffering is what keeps senders
// aligned with their parents' wake-ups; without it, early transmissions
// find sleeping receivers and burn retries (measured here as MAC failures
// per 1000 sends, alongside the duty cost).
func AblationBuffering(o Options) (*Figure, error) {
	o = o.normalized()
	variants := []struct {
		name string
		off  bool
	}{
		{"buffered (paper)", false},
		{"greedy early send", true},
	}
	rates := []float64{1, 3, 5}
	results, work, err := runMatrix(o, len(variants)*len(rates), func(i int, seed int64) Scenario {
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, rates[i%len(rates)], 1, 10*time.Second)
		sc.NoBuffering = variants[i/len(rates)].off
		return sc
	})
	if err != nil {
		return nil, err
	}
	var duty, fails []Series
	for vi, v := range variants {
		sd := Series{Name: v.name + " duty%"}
		sf := Series{Name: v.name + " fails/1k"}
		for ri, rate := range rates {
			rs := results[vi*len(rates)+ri]
			sd.Points = append(sd.Points, pointFrom(rate, rs,
				func(r *Result) float64 { return r.DutyCycle * 100 }))
			sf.Points = append(sf.Points, pointFrom(rate, rs, func(r *Result) float64 {
				total := r.MACSent + r.MACFailed
				if total == 0 {
					return 0
				}
				return float64(r.MACFailed) / float64(total) * 1000
			}))
		}
		duty = append(duty, sd)
		fails = append(fails, sf)
	}
	return &Figure{
		ID:     ablationBufferingInfo.ID,
		Title:  ablationBufferingInfo.Title,
		XLabel: "base rate (Hz)",
		YLabel: "duty cycle (%) / MAC failures per 1000 sends",
		Series: append(duty, fails...),
		Work:   work,
	}, nil
}

// AblationTreeConstruction compares the simulated setup flood (the
// paper's construction, deeper and less regular) against an idealized
// min-hop BFS tree for DTS-SS.
func AblationTreeConstruction(o Options) (*Figure, error) {
	o = o.normalized()
	variants := []struct {
		name string
		bfs  bool
	}{
		{"flood tree (paper)", false},
		{"min-hop BFS tree", true},
	}
	rates := []float64{1, 3, 5}
	results, work, err := runMatrix(o, len(variants)*len(rates), func(i int, seed int64) Scenario {
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, rates[i%len(rates)], 1, 10*time.Second)
		sc.BFSTree = variants[i/len(rates)].bfs
		return sc
	})
	if err != nil {
		return nil, err
	}
	var series []Series
	for vi, v := range variants {
		s := Series{Name: v.name}
		for ri, rate := range rates {
			s.Points = append(s.Points, pointFrom(rate, results[vi*len(rates)+ri],
				func(r *Result) float64 { return r.DutyCycle * 100 }))
		}
		series = append(series, s)
	}
	return &Figure{
		ID:     ablationTreeInfo.ID,
		Title:  ablationTreeInfo.Title,
		XLabel: "base rate (Hz)",
		YLabel: "duty cycle (%)",
		Series: series,
		Work:   work,
	}, nil
}

// RobustnessLoss sweeps transient packet loss (§4.3) for the three ESSAT
// protocols at a 1 Hz base rate and reports root coverage: how much of
// the network's data still reaches the root per interval, as a fraction
// of the tree size. DTS pays for its adaptivity with resynchronization
// traffic but keeps coverage close to NTS/STS.
func RobustnessLoss(o Options, lossRates []float64) (*Figure, error) {
	o = o.normalized()
	if len(lossRates) == 0 {
		lossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	protos := []Protocol{DTSSS, STSSS, NTSSS}
	results, work, err := runMatrix(o, len(protos)*len(lossRates), func(i int, seed int64) Scenario {
		sc := o.scenario(protos[i/len(lossRates)], seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, 1, 1, 10*time.Second)
		sc.LossRate = lossRates[i%len(lossRates)]
		sc.FailureThreshold = 3
		return sc
	})
	if err != nil {
		return nil, err
	}
	var series []Series
	for pi, p := range protos {
		s := Series{Name: string(p) + " coverage%"}
		for li, loss := range lossRates {
			s.Points = append(s.Points, pointFrom(loss*100, results[pi*len(lossRates)+li],
				func(r *Result) float64 { return r.Coverage / float64(r.TreeSize) * 100 }))
		}
		series = append(series, s)
	}
	return &Figure{
		ID:     robustnessLossInfo.ID,
		Title:  robustnessLossInfo.Title,
		XLabel: "loss rate (%)",
		YLabel: "root coverage (% of tree)",
		Series: series,
		Work:   work,
	}, nil
}

// RobustnessFailures kills a growing number of random non-leaf nodes
// mid-run under DTS-SS and reports coverage among survivors: the §4.3
// recovery (parent-side dependency removal, child-side re-parenting with
// Join + phase update) should keep surviving nodes' data flowing.
func RobustnessFailures(o Options, failureCounts []int) (*Figure, error) {
	o = o.normalized()
	if len(failureCounts) == 0 {
		failureCounts = []int{0, 1, 2, 4}
	}
	results, work, err := runMatrix(o, len(failureCounts), func(i int, seed int64) Scenario {
		fc := failureCounts[i]
		sc := o.scenario(DTSSS, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		sc.Queries = QueryClasses(rng, 1, 1, 10*time.Second)
		sc.FailureThreshold = 3
		for j := 0; j < fc; j++ {
			sc.Failures = append(sc.Failures, Failure{
				At:   sc.Duration/4 + time.Duration(j)*sc.Duration/8,
				Node: -1,
			})
		}
		return sc
	})
	if err != nil {
		return nil, err
	}
	var cov, duty Series
	cov.Name = "coverage % of survivors"
	duty.Name = "duty cycle %"
	for i, fc := range failureCounts {
		cov.Points = append(cov.Points, pointFrom(float64(fc), results[i], func(r *Result) float64 {
			alive := float64(r.TreeSize - fc)
			if alive <= 0 {
				return 0
			}
			return r.Coverage / alive * 100
		}))
		duty.Points = append(duty.Points, pointFrom(float64(fc), results[i],
			func(r *Result) float64 { return r.DutyCycle * 100 }))
	}
	return &Figure{
		ID:     robustnessFailuresInfo.ID,
		Title:  robustnessFailuresInfo.Title,
		XLabel: "failed nodes",
		YLabel: "coverage (% of survivors) / duty cycle (%)",
		Series: []Series{cov, duty},
		Work:   work,
		Notes: []string{
			"values above 100% are expected: victims contribute before dying, and during",
			"re-parent handoffs a report can reach the root via both the old and new parent",
		},
	}, nil
}
