// Package protocol lists the power-management stacks the harness can
// attach to a sensor node. Each protocol is a Builder that wires a
// traffic shaper, sleep scheduler, and query agent onto one node.Node;
// the stacks table is the single source of truth for "which protocols
// exist", shared by the experiment layer, the public API, and the CLIs.
//
// To add a protocol, write its Builder and add a row to the stacks
// table; it immediately becomes runnable from scenarios, JSON specs,
// and essat-sim without touching the experiment package.
package protocol

import (
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/node"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/registry"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
)

// Protocol names a power-management stack.
type Protocol string

// The five protocols of the paper's evaluation plus SYNC, plus T-MAC
// from the paper's related-work discussion (§2, reference [12]).
const (
	NTSSS Protocol = "NTS-SS"
	STSSS Protocol = "STS-SS"
	DTSSS Protocol = "DTS-SS"
	SPAN  Protocol = "SPAN"
	PSM   Protocol = "PSM"
	SYNC  Protocol = "SYNC"
	TMAC  Protocol = "TMAC"
)

// Params carries the protocol-tuning knobs of a scenario, shared by all
// builders. Zero values select each protocol's defaults, with one
// exception inherited from Safe Sleep: SSBreakEven zero means a literal
// tBE of zero (sleep through any gap); negative selects the radio's
// intrinsic break-even time. The baselines (PSM, SYNC, T-MAC) always
// run their package constants.
type Params struct {
	// SSBreakEven is the Safe Sleep tBE parameter (negative = radio
	// intrinsic).
	SSBreakEven time.Duration
	// DisableSafeSleep turns SS off on every node (ablation: shaping
	// without sleeping).
	DisableSafeSleep bool
	// STSDeadline is the STS deadline D; zero selects D = query period.
	STSDeadline time.Duration
	// NoBuffering disables STS/DTS early-report buffering (ablation).
	NoBuffering bool
}

// BuildContext is everything a Builder may use to attach a protocol
// stack to one node. The same context fields are passed for every node
// of a run except Node and Sink.
type BuildContext struct {
	Eng  *sim.Engine
	Node *node.Node
	Tree *routing.Tree
	// Sink receives completed query intervals; non-nil only at the root.
	Sink query.Sink
	// QueryCfg is the node's query agent config, resolved once per run.
	QueryCfg query.Config
	// Queries is how many queries the run registers at every node. With
	// the node's children in Tree it sizes the per-query and per-child
	// tables, so a node reserves only what it will use.
	Queries int
	Params  Params
}

// Builder attaches one protocol's stack (shaper + sleep scheduler +
// query agent, or a baseline power manager) to ctx.Node. It is called
// once per tree member, before the simulation starts.
type Builder func(ctx *BuildContext)

// stacks lists every protocol in presentation order, the paper's
// figure ordering.
var stacks = registry.Table[Protocol, Builder]{
	{Name: DTSSS, Model: buildDTS},
	{Name: STSSS, Model: buildSTS},
	{Name: NTSSS, Model: buildNTS},
	{Name: PSM, Model: buildPSM},
	{Name: SPAN, Model: buildSPAN},
	{Name: SYNC, Model: buildSYNC},
	{Name: TMAC, Model: buildTMAC},
}

// testDoubles holds the stacks RegisterTestDouble adds.
var testDoubles = map[Protocol]Builder{}

// RegisterTestDouble makes b runnable under name without listing it in
// All. It is for tests only: a test binary registers deliberately
// panicking or slow stacks through it from TestMain, before any run,
// so every-protocol sweeps and CLI listings still see only the real
// stacks.
func RegisterTestDouble(name Protocol, b Builder) { testDoubles[name] = b }

// Lookup returns the builder for p.
func Lookup(p Protocol) (Builder, bool) {
	if b, ok := stacks.Lookup(p); ok {
		return b, true
	}
	b, ok := testDoubles[p]
	return b, ok
}

// All lists every protocol in presentation order.
func All() []Protocol { return stacks.Names() }

// newSafeSleep builds the node's Safe Sleep scheduler with the
// context's tBE parameter, honoring the global disable switch.
func newSafeSleep(ctx *BuildContext, disabled bool) *core.SafeSleep {
	n := ctx.Node
	return core.NewSafeSleep(ctx.Eng, n.Radio, core.SafeSleepOptions{
		BreakEven: ctx.Params.SSBreakEven,
		MACBusy:   n.MAC,
		Disabled:  disabled || ctx.Params.DisableSafeSleep,
		Queries:   ctx.Queries,
		Children:  len(ctx.Tree.Children(n.ID())),
	})
}
