package essat_test

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/essat/essat"
)

// ExampleRun simulates the paper's deployment under DTS-SS and checks the
// headline properties hold: single-digit duty cycle with sub-second
// query latency.
func ExampleRun() {
	sc := essat.DefaultScenario(essat.DTSSS, 1)
	sc.Duration = 30 * time.Second
	rng := rand.New(rand.NewSource(1))
	sc.Queries = essat.QueryClasses(rng, 1.0, 1, 10*time.Second)

	res, err := essat.Run(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("duty cycle below 10%%: %v\n", res.DutyCycle < 0.10)
	fmt.Printf("latency below 1s: %v\n", res.Latency.Mean < time.Second)
	// Output:
	// duty cycle below 10%: true
	// latency below 1s: true
}

// ExampleQueryClasses builds the paper's three-class workload.
func ExampleQueryClasses() {
	rng := rand.New(rand.NewSource(7))
	specs := essat.QueryClasses(rng, 2.0, 1, time.Second)
	for _, s := range specs {
		fmt.Printf("Q%d: period %v\n", s.Class, s.Period)
	}
	// Output:
	// Q1: period 500ms
	// Q2: period 1s
	// Q3: period 1.5s
}

// ExampleScenario_failures injects a node death, a fail row whose
// omitted node picks a random non-leaf victim, and shows the §4.3
// recovery keeping data flowing.
func ExampleScenario_failures() {
	sc := essat.DefaultScenario(essat.DTSSS, 3)
	sc.Duration = 40 * time.Second
	sc.FailureThreshold = 3
	sc.Dynamics = []essat.Dynamic{{Kind: "fail", Params: essat.DynamicsParams{At: 15 * time.Second}}}
	rng := rand.New(rand.NewSource(3))
	sc.Queries = essat.QueryClasses(rng, 1.0, 1, 5*time.Second)

	res, err := essat.Run(sc)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("survivor coverage above 90%%: %v\n",
		res.Coverage/float64(res.TreeSize-1) > 0.9)
	// Output:
	// survivor coverage above 90%: true
}
