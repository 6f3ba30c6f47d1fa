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

func (psmBuilder) Build(ctx *BuildContext) error {
	n := ctx.Node
	cfg := baseline.DefaultPsmConfig()
	pm, err := baseline.NewPsmPM(ctx.Eng, n.ID(), n.Radio, n.MAC, cfg)
	if err != nil {
		return err
	}
	n.InstallPM(pm)
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = cfg.BeaconPeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
	return nil
}

type syncBuilder struct{}

func (syncBuilder) Protocol() Protocol { return SYNC }

func (syncBuilder) Build(ctx *BuildContext) error {
	n := ctx.Node
	cfg := baseline.DefaultSyncConfig()
	pm, err := baseline.NewSyncPM(ctx.Eng, n.Radio, cfg)
	if err != nil {
		return err
	}
	n.InstallPM(pm)
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = cfg.Period
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
	return nil
}

type tmacBuilder struct{}

func (tmacBuilder) Protocol() Protocol { return TMAC }

func (tmacBuilder) Build(ctx *BuildContext) error {
	n := ctx.Node
	cfg := baseline.DefaultTmacConfig()
	pm, err := baseline.NewTmacPM(ctx.Eng, n.Radio, n.MAC, cfg)
	if err != nil {
		return err
	}
	n.InstallPM(pm)
	g := baseline.NewGreedy(ctx.Eng, n, ctx.Queries)
	g.PerHopDelay = cfg.FramePeriod
	n.InstallAgent(g, ctx.Sink, ctx.QueryCfg, ctx.Queries)
	return nil
}
