package protocol

import (
	"github.com/essat/essat/internal/baseline"
)

// The paper's duty-cycling baselines (PSM, SYNC) plus T-MAC from its
// related-work discussion. Each installs a PowerManager driving the
// radio directly and a greedy (unshaped) forwarding agent whose timeout
// budget matches the baseline's per-hop delay.

func init() {
	Register(40, psmBuilder{})
	Register(60, syncBuilder{})
	Register(70, tmacBuilder{})
}

type psmBuilder struct{}

func (psmBuilder) Protocol() Protocol { return PSM }

func (psmBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewPsmPM(ctx.Eng, n.ID(), n.Radio, n.MAC))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.PsmBeaconPeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

type syncBuilder struct{}

func (syncBuilder) Protocol() Protocol { return SYNC }

func (syncBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewSyncPM(ctx.Eng, n.Radio))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.SyncPeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

type tmacBuilder struct{}

func (tmacBuilder) Protocol() Protocol { return TMAC }

func (tmacBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	n.InstallPM(baseline.NewTmacPM(ctx.Eng, n.Radio, n.MAC))
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = baseline.TmacFramePeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}
