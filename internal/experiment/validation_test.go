package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/essat/essat/internal/baseline"
	"github.com/essat/essat/internal/mac"
)

// TestBuildRejectsMalformedConfigs: every config-validation failure a
// scenario can express must come back from Build as an error — never a
// panic — so a malformed corpus spec can never take down a campaign
// worker. One case per converted check (mac frame/timing, query report
// size, and the baseline T-MAC/SYNC/PSM window rules).
func TestBuildRejectsMalformedConfigs(t *testing.T) {
	base := func(p Protocol) Scenario {
		sc := DefaultScenario(p, 1)
		sc.Duration = 2 * time.Second
		sc.MeasureFrom = 0
		sc.Queries = QueryClasses(rand.New(rand.NewSource(7)), 2, 1, time.Second)
		return sc
	}

	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{
			name: "mac ack frame size",
			sc: func() Scenario {
				sc := base(DTSSS)
				sc.MACCfg = mac.DefaultConfig()
				sc.MACCfg.AckBytes = 0
				return sc
			}(),
			want: "AckBytes",
		},
		{
			name: "mac contention window",
			sc: func() Scenario {
				sc := base(DTSSS)
				sc.MACCfg = mac.DefaultConfig()
				sc.MACCfg.CWMin = 8
				sc.MACCfg.CWMax = 4
				return sc
			}(),
			want: "CWMin",
		},
		{
			name: "query report bytes",
			sc: func() Scenario {
				sc := base(DTSSS)
				sc.QueryCfg.ReportBytes = -1
				return sc
			}(),
			want: "ReportBytes",
		},
		{
			name: "tmac window",
			sc: func() Scenario {
				sc := base(TMAC)
				sc.TmacCfg = baseline.TmacConfig{FramePeriod: 10 * time.Millisecond, TA: 20 * time.Millisecond}
				return sc
			}(),
			want: "T-MAC",
		},
		{
			name: "sync window",
			sc: func() Scenario {
				sc := base(SYNC)
				sc.SyncCfg = baseline.SyncConfig{Period: time.Second, ActiveWindow: 2 * time.Second}
				return sc
			}(),
			want: "SYNC",
		},
		{
			name: "psm windows",
			sc: func() Scenario {
				sc := base(PSM)
				sc.PsmCfg = baseline.PsmConfig{
					BeaconPeriod: 100 * time.Millisecond,
					AtimWindow:   80 * time.Millisecond,
					DataWindow:   80 * time.Millisecond,
					AtimBytes:    14,
				}
				return sc
			}(),
			want: "PSM",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := BuildWith(nil, tc.sc)
			if err == nil {
				t.Fatalf("Build accepted a malformed %s config", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Build error %q does not mention %q", err, tc.want)
			}
		})
	}
}
