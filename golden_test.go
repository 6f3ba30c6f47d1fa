package essat_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/essat/essat"
)

// updateGolden regenerates testdata/golden.json instead of comparing
// against it:
//
//	go test . -run TestGoldenTraceDigests -update-golden
//
// Regenerate ONLY when an intentional behavior change is being made,
// and say so in the commit message: these digests are the semantic
// safety net over the whole stack (scheduler pops, every transmission
// and delivery, every radio transition, every root report). A digest
// change means the simulation executed a different event trace.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current implementation")

const goldenPath = "testdata/golden.json"

// goldenRun is one pinned scenario in the golden suite.
type goldenRun struct {
	label string
	build func(t *testing.T) essat.Scenario
}

// goldenSuite pins scaled-down versions of the fig3 and fig6 grids
// (same scenario construction as the catalog figures, 20-second runs,
// seed 1) plus the two checked-in scenario files. Every run executes
// under the full invariant audit; the digest is the auditor's canonical
// trace hash.
func goldenSuite() map[string][]goldenRun {
	figScenario := func(p essat.Protocol, rate float64) func(*testing.T) essat.Scenario {
		return func(*testing.T) essat.Scenario {
			sc := essat.DefaultScenario(p, 1)
			sc.Duration = 20 * time.Second
			// The figures' rate-workload convention: phase rng seeded
			// with seed × 7919.
			sc.Queries = essat.QueryClasses(rand.New(rand.NewSource(7919)), rate, 1, 10*time.Second)
			return sc
		}
	}
	fromFile := func(path string, duration time.Duration) func(*testing.T) essat.Scenario {
		return func(t *testing.T) essat.Scenario {
			spec, err := essat.LoadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			if duration > 0 {
				spec.Duration = essat.Dur(duration)
			}
			sc, err := spec.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}
	}

	suite := map[string][]goldenRun{}
	fig3Protos := []essat.Protocol{essat.DTSSS, essat.STSSS, essat.NTSSS, essat.PSM, essat.SPAN}
	fig6Protos := append(append([]essat.Protocol(nil), fig3Protos...), essat.SYNC)
	for _, rate := range []float64{1, 5} {
		for _, p := range fig3Protos {
			suite["fig3"] = append(suite["fig3"], goldenRun{
				label: string(p) + "/rate=" + strconv.Itoa(int(rate)),
				build: figScenario(p, rate),
			})
		}
		for _, p := range fig6Protos {
			suite["fig6"] = append(suite["fig6"], goldenRun{
				label: string(p) + "/rate=" + strconv.Itoa(int(rate)),
				build: figScenario(p, rate),
			})
		}
	}
	suite["example.json"] = []goldenRun{{label: "as-checked-in", build: fromFile("testdata/example.json", 0)}}
	// The 1000-node tier, shortened exactly like the CI smoke run.
	suite["large.json"] = []goldenRun{{label: "5s-smoke", build: fromFile("testdata/large.json", 5*time.Second)}}
	// The 10000-node tier, shortened exactly like its CI smoke run. Five
	// simulated seconds is past the first query phases, so real traffic
	// (tens of thousands of frames across a rank-~47 tree) is pinned.
	suite["huge.json"] = []goldenRun{{label: "5s-smoke", build: fromFile("testdata/huge.json", 5*time.Second)}}
	// The lossy-channel tier: log-normal shadowing links on CC2420
	// hardware, pinning the gray-zone delivery draws, the widened
	// candidate graph, the flood retry rounds, and the profile-derived
	// break-even time.
	suite["shadowing.json"] = []goldenRun{{label: "as-checked-in", build: fromFile("testdata/shadowing.json", 0)}}
	// Node crashes and recoveries: Suspend/Resume rebuild a returning
	// station's carrier count from the channel's in-flight list.
	suite["dynamics_crash.json"] = []goldenRun{{label: "as-checked-in", build: fromFile("testdata/dynamics_crash.json", 0)}}
	// The §3 flows: one dissemination flow and two peer flows over a
	// tree that re-parents after a failure, so the relay's live hop
	// index and next hops are pinned through a tree change.
	suite["flows.json"] = []goldenRun{{label: "as-checked-in", build: fromFile("testdata/flows.json", 0)}}
	// T-MAC's power manager subscribes its own radio listener after the
	// channel station and the MAC.
	suite["tmac"] = []goldenRun{{label: "fig3/rate=5", build: figScenario(essat.TMAC, 5)}}
	return suite
}

// TestDiscModelMatchesLegacy pins the refactor's central promise: the
// explicit default models ("disc" propagation, "paper" energy profile)
// execute the exact event trace the hardwired pre-refactor path did.
// The golden digests were recorded before the model registries existed,
// so a match here proves the hooks are behavior-preserving, not merely
// self-consistent.
func TestDiscModelMatchesLegacy(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	for _, p := range []essat.Protocol{essat.DTSSS, essat.STSSS, essat.NTSSS, essat.PSM, essat.SPAN} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			want := golden["fig3"][string(p)+"/rate=1"]
			if want == "" {
				t.Fatalf("no golden digest for %s", p)
			}
			sc := essat.DefaultScenario(p, 1)
			sc.Duration = 20 * time.Second
			sc.Queries = essat.QueryClasses(rand.New(rand.NewSource(7919)), 1, 1, 10*time.Second)
			sc.Propagation = "disc"
			sc.RadioProfile = "paper"
			sc.Audit = true
			res, err := essat.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Audit.Digest != want {
				t.Errorf("explicit disc+paper digest %s != legacy golden %s", res.Audit.Digest, want)
			}
		})
	}
}

// TestGoldenTraceDigests executes every pinned scenario under the
// invariant auditor and compares its trace digest against
// testdata/golden.json. A mismatch means a behavior change somewhere in
// the stack: either find the regression, or — for an intentional
// change — regenerate with -update-golden and justify it in the PR.
func TestGoldenTraceDigests(t *testing.T) {
	var golden map[string]map[string]string
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}

	got := map[string]map[string]string{}
	for name, runs := range goldenSuite() {
		got[name] = map[string]string{}
		for _, gr := range runs {
			sc := gr.build(t)
			sc.Audit = true
			res, err := essat.Run(sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, gr.label, err)
			}
			if res.Audit.Total != 0 {
				t.Errorf("%s/%s: %d invariant violations, first: %s",
					name, gr.label, res.Audit.Total, res.Audit.Violations[0])
			}
			got[name][gr.label] = res.Audit.Digest
		}
	}

	if *updateGolden {
		// Diff against the previous file first: -update-golden's log must
		// say exactly which digests an intentional change moved, so the
		// commit can justify each one (and an accidental full rewrite is
		// obvious immediately).
		prev := map[string]map[string]string{}
		if data, err := os.ReadFile(goldenPath); err == nil {
			if err := json.Unmarshal(data, &prev); err != nil {
				t.Logf("existing %s is unreadable (%v); treating every digest as new", goldenPath, err)
			}
		}
		changed := 0
		for name, runs := range got {
			for label, digest := range runs {
				switch old := prev[name][label]; {
				case old == "":
					changed++
					t.Logf("new digest   %s/%s: %s", name, label, digest)
				case old != digest:
					changed++
					t.Logf("changed      %s/%s: %s -> %s", name, label, old, digest)
				}
			}
		}
		for name, runs := range prev {
			for label := range runs {
				if _, ok := got[name][label]; !ok {
					changed++
					t.Logf("removed      %s/%s (was %s)", name, label, prev[name][label])
				}
			}
		}
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d suites (%d digests added/changed/removed)", goldenPath, len(got), changed)
		return
	}

	for name, runs := range got {
		want, ok := golden[name]
		if !ok {
			t.Errorf("suite %q missing from %s (regenerate with -update-golden)", name, goldenPath)
			continue
		}
		for label, digest := range runs {
			if want[label] == "" {
				t.Errorf("%s/%s missing from %s (regenerate with -update-golden)", name, label, goldenPath)
			} else if digest != want[label] {
				t.Errorf("%s/%s: trace digest %s, golden %s — the simulation behaves differently",
					name, label, digest, want[label])
			}
		}
		for label := range want {
			if _, ok := runs[label]; !ok {
				t.Errorf("%s/%s in %s but not generated by the suite", name, label, goldenPath)
			}
		}
	}
}

// TestGoldenAuditPurity pins the companion guarantee the digests rely
// on: enabling the auditor does not change the run. The example
// scenario is executed with and without the auditor and every metric
// must match exactly.
func TestGoldenAuditPurity(t *testing.T) {
	spec, err := essat.LoadSpec("testdata/example.json")
	if err != nil {
		t.Fatal(err)
	}
	scPlain, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	scPlain.Audit = false
	scAudited := scPlain
	scAudited.Audit = true

	plain, err := essat.Run(scPlain)
	if err != nil {
		t.Fatal(err)
	}
	audited, err := essat.Run(scAudited)
	if err != nil {
		t.Fatal(err)
	}
	if audited.Audit == nil {
		t.Fatal("audited run has no summary")
	}
	audited.Audit = nil
	pj, _ := json.Marshal(plain)
	aj, _ := json.Marshal(audited)
	if string(pj) != string(aj) {
		t.Fatalf("auditor changed the run:\nplain   %s\naudited %s", pj, aj)
	}
}
