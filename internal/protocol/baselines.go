package protocol

import (
	"github.com/essat/essat/internal/baseline"
)

// The paper's duty-cycling baselines (PSM, SYNC) plus T-MAC from its
// related-work discussion. Each installs a PowerManager driving the
// radio directly and a greedy (unshaped) forwarding agent whose timeout
// budget matches the baseline's per-hop delay.

func buildPSM(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewPsmPM(ctx.Eng, n.ID(), n.Radio, n.MAC))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.PsmBeaconPeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

func buildSYNC(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewSyncPM(ctx.Eng, n.Radio))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.SyncPeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

func buildTMAC(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewTmacPM(ctx.Eng, n.Radio, n.MAC))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.TmacFramePeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}
