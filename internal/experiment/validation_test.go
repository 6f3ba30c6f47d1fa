package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestBuildRejectsMalformedConfigs: every config-validation failure a
// scenario can express must come back from Build as an error — never a
// panic — so a malformed corpus spec can never take down a campaign
// worker. The one config value a scenario sets is the query agent's
// failure threshold; the MAC and baseline configs are package defaults,
// and their rules are tested in internal/mac and internal/baseline.
func TestBuildRejectsMalformedConfigs(t *testing.T) {
	sc := DefaultScenario(DTSSS, 1)
	sc.Duration = 2 * time.Second
	sc.MeasureFrom = 0
	sc.Queries = QueryClasses(rand.New(rand.NewSource(7)), 2, 1, time.Second)
	sc.FailureThreshold = -1
	_, err := BuildWith(nil, sc)
	if err == nil {
		t.Fatal("Build accepted a negative failure threshold")
	}
	if !strings.Contains(err.Error(), "FailureThreshold") {
		t.Fatalf("Build error %q does not mention FailureThreshold", err)
	}
}
