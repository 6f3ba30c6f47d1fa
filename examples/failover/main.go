// Failover: the paper's §4.3 robustness mechanisms under stress —
// transient packet loss plus mid-run node failures.
//
// The example runs DTS-SS with 5% random frame loss and three node
// failures, and shows (a) DTS resynchronizing its sleep schedules through
// piggybacked phase requests after losses, and (b) the tree healing
// itself: parents drop dead children, orphans re-parent and announce
// themselves with a Join, all while data keeps reaching the root.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/essat/essat"
)

func main() {
	run := func(loss float64, failures int) *essat.Result {
		spec := essat.Spec{
			Protocol:         "DTS-SS",
			Seed:             3,
			Duration:         essat.Dur(120 * time.Second),
			Loss:             loss,
			FailureThreshold: 3, // enable §4.3 failure detection
			Workload:         &essat.Workload{BaseRate: 1.0, PerClass: 1, Seed: 11},
		}
		for i := 0; i < failures; i++ {
			spec.Dynamics = append(spec.Dynamics, essat.DynamicsSpec{
				// Node omitted: a random non-leaf victim per failure.
				Kind: "fail",
				At:   essat.Dur(30*time.Second + time.Duration(i)*20*time.Second),
			})
		}
		res, err := essat.RunSpec(&spec)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("DTS-SS under network dynamics (§4.3)")
	fmt.Printf("%-34s %10s %12s %12s %14s\n", "condition", "duty (%)", "mean lat", "coverage", "resyncs/fails")

	baseline := run(0, 0)
	fmt.Printf("%-34s %10.2f %11.0fms %9.1f/%d %14s\n",
		"clean channel, no failures", baseline.DutyCycle*100,
		baseline.Latency.Mean.Seconds()*1000, baseline.Coverage, baseline.TreeSize, "-")

	lossy := run(0.05, 0)
	fmt.Printf("%-34s %10.2f %11.0fms %9.1f/%d %14d\n",
		"5% frame loss", lossy.DutyCycle*100,
		lossy.Latency.Mean.Seconds()*1000, lossy.Coverage, lossy.TreeSize, lossy.MACFailed)

	chaos := run(0.05, 3)
	fmt.Printf("%-34s %10.2f %11.0fms %9.1f/%d %14d\n",
		"5% loss + 3 node failures", chaos.DutyCycle*100,
		chaos.Latency.Mean.Seconds()*1000, chaos.Coverage, chaos.TreeSize, chaos.MACFailed)

	fmt.Println("\nCoverage dips by roughly the dead subtrees until orphans re-parent;")
	fmt.Println("duty cycle stays low because stale expected times are cleaned up")
	fmt.Println("(parents stop waiting for dead children) and phase updates resync")
	fmt.Println("the survivors' sleep schedules.")
}
