package main

import (
	"math"
	"math/rand"
	"time"

	"github.com/essat/essat/internal/sim"
)

// engineTiers are the pending-event populations of the three simulator
// tiers the engine microbenchmark reproduces: about four live events
// per node, as an Engine observer reading Pending() measures on the
// 80-node grid, testdata/large.json (4,097 mean) and
// testdata/huge.json (40,267 mean).
var engineTiers = []struct {
	name    string
	pending int
}{
	{"n80", 320},
	{"n1k", 4_000},
	{"n10k", 40_000},
}

// engineCPU is the CPU time each tier is measured for, in batches of
// engineBatch events.
const (
	engineCPU   = 250 * time.Millisecond
	engineBatch = 10_000
)

// engineNsPerEvent measures the scheduler alone, through the public
// sim.Engine API: pending self-rescheduling timers, each of which fires
// and schedules itself again after a delay drawn log-uniformly from
// 10 µs to 100 ms, the span between a backoff slot and a query period.
// It returns CPU nanoseconds per fired event once every timer has fired
// once, so the cost cannot depend on phy, mac or any layer above the
// engine.
func engineNsPerEvent(pending int) float64 {
	rng := rand.New(rand.NewSource(1))
	delays := make([]time.Duration, 4096)
	lo, hi := math.Log(float64(10*time.Microsecond)), math.Log(float64(100*time.Millisecond))
	for i := range delays {
		delays[i] = time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
	}
	e := sim.New(1)
	next := 0
	var tick func()
	tick = func() {
		next++
		e.After(delays[next&(len(delays)-1)], tick)
	}
	for i := 0; i < pending; i++ {
		e.After(delays[rng.Intn(len(delays))], tick)
	}
	for i := 0; i < pending; i++ {
		e.Step()
	}
	start := cpuNow()
	events := 0
	for cpuNow()-start < engineCPU {
		for i := 0; i < engineBatch; i++ {
			e.Step()
		}
		events += engineBatch
	}
	return float64(cpuNow()-start) / float64(events)
}
