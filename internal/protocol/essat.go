package protocol

import (
	"github.com/essat/essat/internal/core"
)

// The ESSAT family: Safe Sleep paired with one of the paper's three
// traffic shapers (§4.2), plus SPAN, which the paper configures as an
// always-on backbone with NTS-SS leaves (§5).

func buildNTS(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	n.InstallAgent(core.NewNTS(n, ss), ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

func buildSTS(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	sts := core.NewSTS(n, ss, ctx.Params.STSDeadline, ctx.Params.NoBuffering)
	n.InstallAgent(sts, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

func buildDTS(ctx *BuildContext) {
	n := ctx.Node
	ss := newSafeSleep(ctx, false)
	n.InstallSleep(ss)
	dts := core.NewDTS(n, ss, ctx.Params.NoBuffering)
	n.InstallAgent(dts, ctx.Sink, ctx.QueryCfg, ctx.Queries)
}

func buildSPAN(ctx *BuildContext) {
	// Backbone (non-leaf) nodes always on; leaves run NTS-SS.
	n := ctx.Node
	ss := newSafeSleep(ctx, !ctx.Tree.IsLeaf(n.ID()))
	n.InstallSleep(ss)
	n.InstallAgent(core.NewNTS(n, ss), ctx.Sink, ctx.QueryCfg, ctx.Queries)
}
