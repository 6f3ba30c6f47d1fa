package protocol

import (
	"github.com/essat/essat/internal/core"
)

// The ESSAT family: Safe Sleep paired with one of the paper's three
// traffic shapers (§4.2), plus SPAN, which the paper configures as an
// always-on backbone with NTS-SS leaves (§5).

func init() {
	Register(10, dtsBuilder{})
	Register(20, stsBuilder{})
	Register(30, ntsBuilder{})
	Register(50, spanBuilder{})
}

type ntsBuilder struct{}

func (ntsBuilder) Protocol() Protocol { return NTSSS }

func (ntsBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	n.InstallAgent(core.NewNTS(n, ss), ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

type stsBuilder struct{}

func (stsBuilder) Protocol() Protocol { return STSSS }

func (stsBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	sts := core.NewSTS(n, ss, ctx.Params.STSDeadline)
	sts.NoBuffering = ctx.Params.NoBuffering
	n.InstallAgent(sts, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

type dtsBuilder struct{}

func (dtsBuilder) Protocol() Protocol { return DTSSS }

func (dtsBuilder) Build(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	dts := core.NewDTS(n, ss)
	dts.NoBuffering = ctx.Params.NoBuffering
	n.InstallAgent(dts, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

type spanBuilder struct{}

func (spanBuilder) Protocol() Protocol { return SPAN }

func (spanBuilder) Build(ctx *BuildContext) {
	// Backbone (non-leaf) nodes always on; leaves run NTS-SS.
	n := ctx.Node
	ss := newSafeSleep(ctx, !ctx.Tree.IsLeaf(n.ID()))
	n.InstallSleep(ss)
	n.InstallAgent(core.NewNTS(n, ss), ctx.Sink, ctx.QueryCfg, ctx.Queries)
}
