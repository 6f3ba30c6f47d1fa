// Package node composes a full sensor-node stack: radio, CSMA/CA MAC,
// query agent, traffic shaper / Safe Sleep, and an optional power manager
// (for the SYNC/PSM baselines). It implements the dispatching between the
// layers, the core.Env context the ESSAT protocols need, and the node-side
// coordination of the §4.3 failure-recovery procedures.
package node

import (
	"time"

	"github.com/essat/essat/internal/core"
	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/query"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/trace"
)

// NodeID aliases the shared node identifier.
type NodeID = phy.NodeID

// JoinMsg is sent by a re-parenting node to its new parent so the parent
// adds the dependency ("the new parent adds a dependency on the node",
// §4.3).
type JoinMsg struct{}

// PowerManager is a baseline power-management policy driving the radio
// directly (SYNC, PSM). ESSAT protocols do not use one: Safe Sleep plays
// this role.
type PowerManager interface {
	// Start begins the policy's schedule at simulation time zero.
	Start()
}

// ReportGate is an optional PowerManager capability: intercepting report
// submissions so they can be buffered until the protocol's transfer
// window (PSM's ATIM announcement cycle).
type ReportGate interface {
	SubmitReport(dst NodeID, payload any, bytes int, cb mac.SendCallback)
}

// ControlSink is an optional PowerManager capability: receiving the power
// manager's own control traffic (PSM's ATIM announcements).
type ControlSink interface {
	HandleControl(src NodeID, msg any)
}

// Node is one sensor node's full stack.
type Node struct {
	id   NodeID
	eng  *sim.Engine
	tree *routing.Tree

	Radio *radio.Radio
	MAC   *mac.MAC
	Agent *query.Agent
	SS    *core.SafeSleep // nil for baseline power managers
	PM    PowerManager    // nil for ESSAT protocols
	Flows *core.Relay     // nil unless InstallRelay was called

	gate   ReportGate
	ctrl   ControlSink
	tracer *trace.Tracer
	killed bool
}

var _ mac.Upper = (*Node)(nil)
var _ mac.AckInfoSink = (*Node)(nil)
var _ query.Host = (*Node)(nil)
var _ core.Env = (*Node)(nil)
var _ core.RelayEnv = (*Node)(nil)

// New builds the bottom half of a node (radio + a MAC with the default
// parameters) attached to the channel. InstallAgent must be called
// before the simulation starts.
func New(eng *sim.Engine, id NodeID, tree *routing.Tree, ch *phy.Channel, radioCfg radio.Config) *Node {
	n := sim.ArenaGrab[Node](eng, "node.node")
	*n = Node{id: id, eng: eng, tree: tree}
	n.Radio = radio.New(eng, radioCfg)
	n.MAC = mac.New(eng, ch, id, n.Radio, n)
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// SetTracer attaches a structured event tracer recording this node's
// §4.3 recovery actions (crash, recovery, child declared dead,
// re-parenting). Radio transitions reach a tracer through the run's
// radio listener, not the node. Pass before the run starts.
func (n *Node) SetTracer(tr *trace.Tracer) { n.tracer = tr }

// InstallSleep attaches a Safe Sleep scheduler and wires the MAC-drained
// notification into its state check.
func (n *Node) InstallSleep(ss *core.SafeSleep) {
	n.SS = ss
	n.MAC.SetIdleSink(ss)
}

// InstallAgent creates the query agent with the given shaper. sink is
// non-nil only at the root; queries sizes the agent's tables (see
// query.NewAgent). The node itself is the agent's Host (send path +
// failure handlers) and the MAC's AckInfoSink, so the wiring allocates
// nothing per node.
func (n *Node) InstallAgent(shaper query.Shaper, sink query.Sink, cfg query.Config, queries int) {
	n.Agent = query.NewAgent(n.eng, n.id, n.tree, shaper, n, sink, cfg, queries)
}

// AckInfo implements mac.AckInfoSink: information piggybacked on
// received ACKs (DTS phase requests) routes to the shaper.
func (n *Node) AckInfo(from NodeID, info any) {
	if !n.killed {
		n.Agent.HandleControl(from, info)
	}
}

// InstallRelay attaches the §3 flow relay (dissemination and
// peer-to-peer flows). deliver, which may be nil, sees every message the
// node consumes.
func (n *Node) InstallRelay(deliver func(*core.FlowMessage)) *core.Relay {
	n.Flows = core.NewRelay(n.eng, n, n.SS, deliver)
	return n.Flows
}

// InstallPM attaches a baseline power manager, discovering its optional
// gate and control capabilities.
func (n *Node) InstallPM(pm PowerManager) {
	n.PM = pm
	n.gate, _ = pm.(ReportGate)
	n.ctrl, _ = pm.(ControlSink)
}

// Start boots the power manager (if any). ESSAT nodes need no start: Safe
// Sleep acts on the shaper's first expectations.
func (n *Node) Start() {
	if n.PM != nil {
		n.PM.Start()
	}
}

// Kill silences the node: the agent stops producing and the stack ignores
// all future traffic. The caller is responsible for disabling the node on
// the channel (phy.Channel.Disable) so it also stops radiating.
func (n *Node) Kill() {
	n.killed = true
	if n.Agent != nil {
		n.Agent.Stop()
	}
}

// Killed reports whether the node is currently dead (killed or crashed
// and not yet recovered).
func (n *Node) Killed() bool { return n.killed }

// Crash silences the node like Kill, but recoverably: Recover undoes it.
// The caller is responsible for suspending the node on the channel
// (phy.Channel.Suspend), which also takes the radio hardware down.
func (n *Node) Crash() {
	n.killed = true
	if n.Agent != nil {
		n.Agent.Stop()
	}
	n.tracer.Recordf(n.id, trace.NodeFailed, "crashed")
}

// Recover brings a crashed node back: the stack accepts traffic again,
// the radio is woken, and the agent restarts its query intervals at the
// next boundary. The caller must have resumed the node on the channel
// (phy.Channel.Resume) first, or the wake-up is ignored.
func (n *Node) Recover() {
	if !n.killed {
		return
	}
	n.killed = false
	n.Radio.TurnOn()
	if n.Agent != nil {
		n.Agent.Resume()
	}
	n.tracer.Recordf(n.id, trace.Recovered, "recovered")
}

// SendReport implements query.Host, routing agent reports through the
// power manager's gate when one is installed.
func (n *Node) SendReport(dst NodeID, payload any, bytes int, cb mac.SendCallback) {
	if n.killed {
		return
	}
	if n.gate != nil {
		n.gate.SubmitReport(dst, payload, bytes, cb)
		return
	}
	n.MAC.Send(dst, payload, bytes, cb)
}

// Deliver implements mac.Upper, dispatching received payloads to the
// query agent, the shaper, or the power manager.
func (n *Node) Deliver(src NodeID, payload any, bytes int) {
	if n.killed {
		return
	}
	switch msg := payload.(type) {
	case *query.Report:
		n.Agent.HandleReport(src, msg)
	case JoinMsg:
		n.Agent.ChildAdded(src)
	case core.PhaseRequest:
		n.Agent.HandleControl(src, msg)
	case *core.FlowMessage:
		if n.Flows != nil {
			n.Flows.Handle(msg)
		}
	default:
		if n.ctrl != nil {
			n.ctrl.HandleControl(src, msg)
		}
	}
}

// --- core.Env --------------------------------------------------------------

// Now implements core.Env.
func (n *Node) Now() time.Duration { return n.eng.Now() }

// Self implements core.Env.
func (n *Node) Self() query.NodeID { return n.id }

// IsRoot implements core.Env.
func (n *Node) IsRoot() bool { return n.tree.Root() == n.id }

// Rank implements core.Env.
func (n *Node) Rank() int { return n.tree.Rank(n.id) }

// RankOf implements core.Env.
func (n *Node) RankOf(other query.NodeID) int { return n.tree.Rank(other) }

// MaxRank implements core.Env.
func (n *Node) MaxRank() int { return n.tree.MaxRank() }

// RequestPhaseUpdate implements core.Env: piggyback the request on the
// acknowledgement of the report currently being delivered when possible,
// otherwise send an explicit control packet (§4.3).
func (n *Node) RequestPhaseUpdate(child query.NodeID, q query.ID) {
	if n.killed {
		return
	}
	req := core.PhaseRequest{Query: q}
	if n.MAC.AttachToAck(child, req) {
		return
	}
	n.MAC.Send(child, req, core.ControlBytes, nil)
}

// Level implements core.RelayEnv.
func (n *Node) Level() int { return n.tree.Level(n.id) }

// Children implements core.RelayEnv.
func (n *Node) Children() []query.NodeID { return n.tree.Children(n.id) }

// SendData implements core.RelayEnv.
func (n *Node) SendData(dst query.NodeID, payload any, bytes int, cb mac.SendCallback) {
	if n.killed {
		return
	}
	n.MAC.Send(dst, payload, bytes, cb)
}

// --- §4.3 failure recovery --------------------------------------------------

// ChildFailed implements query.Host: the agent's failure detector
// declared a child dead (repeated missed reports). Remove the dependency
// and the stale expected times, and mark the node dead in the shared
// tree so nobody re-parents onto it.
func (n *Node) ChildFailed(child NodeID) {
	n.tracer.Recordf(n.id, trace.NodeFailed, "child %d declared dead", child)
	n.tree.MarkDead(child)
	n.Agent.ChildRemoved(child)
}

// ParentFailed implements query.Host: repeated transmissions to the
// parent failed. Pick a new parent (lowest-level live neighbor), update
// the tree, and announce ourselves with a Join so the new parent adds
// the dependency.
func (n *Node) ParentFailed() {
	old := n.tree.Parent(n.id)
	np := n.tree.FindNewParent(n.id, old)
	if np == routing.None {
		return // disconnected: keep trying the old parent
	}
	if err := n.tree.Reparent(n.id, np); err != nil {
		return
	}
	n.tracer.Recordf(n.id, trace.Reparented, "from %d to %d", old, np)
	n.Agent.ParentChanged()
	n.MAC.Send(np, JoinMsg{}, core.ControlBytes, nil)
}
