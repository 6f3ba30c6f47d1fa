package essat_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/essat/essat"
)

// TestRootSinkPortMatchesLegacy pins the metric-sink refactor's central
// promise: feeding the root recorder through the run's observer — with
// every optional sink attached — executes the exact event trace the hardwired
// pre-registry path did. The fig3 golden digests
// were recorded before the registry existed, so a match proves the port
// is behavior-preserving, not merely self-consistent.
func TestRootSinkPortMatchesLegacy(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.json")
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
			sc.Sinks = []essat.SinkChoice{
				{Name: "timeseries", Params: map[string]float64{"bucket_ms": 500}},
				{Name: "energy"},
				{Name: "jsonl"},
			}
			res, err := essat.Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Audit.Digest != want {
				t.Errorf("digest with sinks attached %s != legacy golden %s", res.Audit.Digest, want)
			}
			if len(res.Records) != 3 {
				t.Fatalf("got %d records, want 3", len(res.Records))
			}
			for i := range res.Records {
				if err := essat.ValidateMetricRecord(&res.Records[i]); err != nil {
					t.Errorf("record %d (%s) invalid: %v", i, res.Records[i].Sink, err)
				}
			}
		})
	}
}
