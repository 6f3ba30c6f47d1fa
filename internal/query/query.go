// Package query implements the paper's workload model (§3): a generic
// query service in which every node in a routing tree produces a data
// report each query period, aggregates its children's reports with its
// own sample, and forwards the aggregate toward the root. An aggregate
// carries its coverage, the number of source samples it folds; no
// measured value is modelled, since no metric reads one.
//
// The Agent is deliberately power-management agnostic: all timing policy
// is delegated to a Shaper (traffic shaper + sleep-scheduler bookkeeping),
// which is where the ESSAT protocols (NTS/STS/DTS + Safe Sleep) and the
// baselines plug in. The agent handles the mechanics every protocol
// shares: interval bookkeeping, aggregation, collection timeouts,
// late-report pass-through, and failure counting.
package query

import (
	"fmt"
	"time"

	"github.com/essat/essat/internal/mac"
	"github.com/essat/essat/internal/routing"
	"github.com/essat/essat/internal/sim"
	"github.com/essat/essat/internal/topology"
)

// NodeID aliases the shared node identifier.
type NodeID = topology.NodeID

// ID identifies a registered query.
type ID int

// NoPhase marks the absence of a piggybacked phase update in a report.
const NoPhase = time.Duration(-1)

// Spec describes a query as issued by the user: report period P, start
// time φ, and a class label used only for result grouping (Q1/Q2/Q3).
// A run stores each query's Spec once: every agent and shaper holds a
// pointer to it, and nothing changes it while the run lasts.
type Spec struct {
	ID     ID
	Period time.Duration
	Phase  time.Duration
	Class  int
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Period <= 0 {
		return fmt.Errorf("query %d: period must be positive, got %v", s.ID, s.Period)
	}
	if s.Phase < 0 {
		return fmt.Errorf("query %d: negative phase %v", s.ID, s.Phase)
	}
	return nil
}

// IntervalStart returns φ + k·P, the nominal start of interval k.
func (s Spec) IntervalStart(k int) time.Duration {
	return s.Phase + time.Duration(k)*s.Period
}

// Report is one (possibly aggregated) data report traveling up the tree.
type Report struct {
	Query    ID
	Interval int
	// Coverage counts the source samples folded into this aggregate.
	Coverage int
	// Phase is a DTS phase update piggybacked on the report: the sender's
	// expected send time of its next report. NoPhase when absent.
	Phase time.Duration
	// PassThrough marks a late partial aggregate being forwarded without
	// further aggregation.
	PassThrough bool
}

// Shaper is the per-node traffic-shaping and sleep-bookkeeping policy.
// The ESSAT shapers update Safe Sleep's expected send/receive times from
// these hooks; baseline policies mostly leave them empty.
type Shaper interface {
	// QueryAdded informs the shaper of a newly registered query and the
	// node's current children for it. The shaper may keep spec: it is
	// the run's one copy and outlives the registration.
	QueryAdded(spec *Spec, children []NodeID)
	// ReportReady is called when this node's aggregate for interval k is
	// ready. It returns when the report should be submitted to the MAC
	// (>= now; early reports are buffered until their expected send time)
	// and the phase update to piggyback, or NoPhase.
	ReportReady(q ID, k int, readyAt time.Duration) (sendAt time.Duration, phase time.Duration)
	// ReportSent is called when the MAC confirmed delivery of interval
	// k's report; the shaper computes s(k+1) here (§4.1).
	ReportSent(q ID, k int)
	// ReportFailed is called when the MAC exhausted its retries for
	// interval k's report. The shaper must still advance its schedule so
	// the node does not stay pinned awake on a stale expected send time.
	ReportFailed(q ID, k int)
	// ReportReceived is called for each scheduled (non-pass-through)
	// report received from a child, with any piggybacked phase; the
	// shaper computes r(q, k+1, c) here (§4.1).
	ReportReceived(q ID, child NodeID, k int, phase time.Duration)
	// IntervalClosed is called when interval k is closed (all children
	// reported, or the collection deadline fired) with the children that
	// did not report in time.
	IntervalClosed(q ID, k int, missing []NodeID)
	// CollectDeadline returns the absolute time at which the node stops
	// waiting for children's interval-k reports (§4.3 timeout policy).
	CollectDeadline(q ID, k int) time.Duration
	// QueryRemoved tells the shaper a query was deregistered: all its
	// schedule state (including Safe Sleep expectations) must be dropped.
	QueryRemoved(q ID)
	// ChildAdded and ChildRemoved track dependency changes from topology
	// maintenance (§4.3).
	ChildAdded(q ID, child NodeID)
	ChildRemoved(q ID, child NodeID)
	// ParentChanged signals that the node was re-parented.
	ParentChanged(q ID)
	// ControlReceived delivers shaper-level control traffic (e.g. DTS
	// phase requests).
	ControlReceived(from NodeID, msg any)
}

// Sink receives root-side observations for metrics.
type Sink interface {
	// ReportArrived fires for every report reaching the root: latency is
	// measured from the interval's nominal start φ+kP.
	ReportArrived(q ID, interval int, latency time.Duration, coverage int)
	// IntervalClosed fires when the root closes interval k with the total
	// coverage it managed to collect.
	IntervalClosed(q ID, interval int, latency time.Duration, coverage int)
}

// Host is the node-side environment of an Agent: the transmit path and
// the failure-detection notifications. The node implements it directly,
// so wiring an agent stores one interface value instead of binding a
// send closure and two failure-handler closures per node per run.
type Host interface {
	// SendReport submits a payload toward dst; cb reports MAC-level
	// success.
	SendReport(dst NodeID, payload any, bytes int, cb mac.SendCallback)
	// ChildFailed fires when a child missed FailureThreshold consecutive
	// intervals.
	ChildFailed(child NodeID)
	// ParentFailed fires when FailureThreshold consecutive transmissions
	// to the parent failed.
	ParentFailed()
}

// Report sizes of the paper's setup.
const (
	// ReportBytes is the on-air size of a data report.
	ReportBytes = 52
	// PhaseBytes is the extra size of a piggybacked phase update.
	PhaseBytes = 4
)

// Config parameterizes an Agent.
type Config struct {
	// FailureThreshold is the number of consecutive missed intervals
	// (child side) or failed transmissions (parent side) before the node
	// declares its neighbor failed. Zero disables failure detection.
	FailureThreshold int
}

// Validate reports whether the configuration is runnable: the failure
// threshold must be non-negative. Hosts that accept configs from
// untrusted input validate before construction so a bad config surfaces
// as a build error; NewAgent panics on an invalid config only as a
// backstop against imperative misuse.
func (c Config) Validate() error {
	if c.FailureThreshold < 0 {
		return fmt.Errorf("query: negative FailureThreshold %d", c.FailureThreshold)
	}
	return nil
}

// Stats counts agent-level outcomes at one node.
type Stats struct {
	// Samples is the number of local measurements produced.
	Samples uint64
	// ReportsSent counts scheduled aggregate reports submitted to the MAC.
	ReportsSent uint64
	// PassThroughsSent counts late partials forwarded unaggregated.
	PassThroughsSent uint64
	// Timeouts counts intervals closed by deadline with children missing.
	Timeouts uint64
	// SendFailures counts MAC-level delivery failures.
	SendFailures uint64
	// PhaseUpdatesSent counts reports that carried a phase piggyback.
	PhaseUpdatesSent uint64
	// LateReports counts child reports that arrived after their interval
	// was closed.
	LateReports uint64
}

// interval is one open collection round. Intervals are pooled by the
// Agent: the struct and its rows come from the per-run arena, their
// capacity survives recycling, and the deadline timer dispatches through
// a shared package-level func carrying the interval as its event
// argument, so steady-state interval turnover is allocation-free. A
// round goes back to the pool the moment it closes, so a node keeps
// about one per query's open round plus one spare.
type interval struct {
	// rows holds the children owed for this interval, in the tree's
	// child order, each marked once its report arrived, followed by the
	// reporters outside that set (mid-recovery edges), which aggregate
	// but never hold the interval open.
	rows     []row
	timeout  *sim.Event
	rt       *runtime // owning query runtime
	k        int
	coverage int32
}

// row is one reporter of an interval. A node ID fits in 32 bits.
type row struct {
	id   int32
	kind rowKind
}

type rowKind uint8

const (
	rowOwed  rowKind = iota // an expected child that has not reported
	rowGot                  // an expected child that has reported
	rowExtra                // a reporter outside the expected children
)

// intervalTimeout is the collection-deadline dispatcher shared by every
// interval: events carry the interval instead of a per-interval closure.
func intervalTimeout(x any) {
	iv := x.(*interval)
	a := iv.rt.a
	iv.timeout = nil
	a.stats.Timeouts++
	a.closeInterval(iv.rt, iv)
}

// expectedIdx returns c's row among the expected children, or -1.
func (iv *interval) expectedIdx(c NodeID) int {
	for i, r := range iv.rows {
		if r.kind != rowExtra && NodeID(r.id) == c {
			return i
		}
	}
	return -1
}

// complete reports whether every expected child has reported.
func (iv *interval) complete() bool {
	for _, r := range iv.rows {
		if r.kind == rowOwed {
			return false
		}
	}
	return true
}

// pruneDepth is how far behind a closing round the agent prunes a round
// that is still open: closing round k drops round k−pruneDepth from the
// table, and later reports for it pass through as late, as they do for
// any closed round. Its deadline still closes it.
const pruneDepth = 8

// missEntry is one child's consecutive-miss counter. A node ID fits in
// 32 bits, and so does a count of rounds.
type missEntry struct {
	id int32
	n  int32
}

type runtime struct {
	a    *Agent // owning agent, for the shared event dispatchers
	spec *Spec
	// intervals holds the open collection rounds in ascending k: ticks
	// create intervals in increasing order and removals preserve order,
	// so every walk with side effects (closing may submit reports,
	// releasing feeds the pools) is deterministic. A round leaves it when
	// it closes, so it rarely holds more than one, and linear lookups win
	// over a map.
	intervals []*interval
	// consecMiss is the per-child consecutive-miss table, a small linear
	// slice for the same reason: at most one row per child.
	consecMiss []missEntry

	// tickK is the interval the next tick starts: the self-rescheduling
	// chain (exactly one tick is outstanding per query). It is -1 once
	// the chain broke: a tick fired while the agent was stopped (node
	// crashed) and did not reschedule itself. Resume restarts broken
	// chains at the next interval boundary.
	tickK int
}

// queryTick is the interval-start dispatcher shared by every query:
// events carry the runtime instead of a per-query closure.
func queryTick(x any) {
	rt := x.(*runtime)
	rt.a.startInterval(rt, rt.tickK)
}

// interval returns the open interval k, or nil: a closed round is no
// longer in the table.
func (rt *runtime) interval(k int) *interval {
	for _, iv := range rt.intervals {
		if iv.k == k {
			return iv
		}
	}
	return nil
}

// removeInterval detaches interval k if it is in the table, preserving
// ascending order.
func (rt *runtime) removeInterval(k int) {
	for i, iv := range rt.intervals {
		if iv.k == k {
			rt.intervals = append(rt.intervals[:i], rt.intervals[i+1:]...)
			return
		}
	}
}

// intervalAfter returns the open interval with the smallest k greater
// than prev, or nil. Iterating with it is safe under re-entrant
// mutation (closing an interval can prune others via failure handlers),
// which a direct range over the slice is not.
func (rt *runtime) intervalAfter(prev int) *interval {
	for _, iv := range rt.intervals {
		if iv.k > prev {
			return iv
		}
	}
	return nil
}

// bumpMiss increments c's consecutive-miss counter and returns it.
func (rt *runtime) bumpMiss(c NodeID) int {
	for i := range rt.consecMiss {
		if NodeID(rt.consecMiss[i].id) == c {
			rt.consecMiss[i].n++
			return int(rt.consecMiss[i].n)
		}
	}
	rt.consecMiss = sim.ArenaAppend(rt.a.eng, "query.rt.miss.grow", rt.consecMiss, missEntry{id: int32(c), n: 1})
	return 1
}

// zeroMiss resets c's counter; absent entries are already zero.
func (rt *runtime) zeroMiss(c NodeID) {
	for i := range rt.consecMiss {
		if NodeID(rt.consecMiss[i].id) == c {
			rt.consecMiss[i].n = 0
			return
		}
	}
}

// dropMiss forgets c entirely (child removed).
func (rt *runtime) dropMiss(c NodeID) {
	for i := range rt.consecMiss {
		if NodeID(rt.consecMiss[i].id) == c {
			rt.consecMiss = append(rt.consecMiss[:i], rt.consecMiss[i+1:]...)
			return
		}
	}
}

// txReport is a pooled in-flight report: the Report payload, and the
// MAC-completion callback itself (mac.SendCallback), so a pooled slot
// needs no closure. The submit timer dispatches through a shared
// package-level func. Every agent of a run shares one pool of them.
type txReport struct {
	rep Report
	rt  *runtime
}

// SendDone implements mac.SendCallback.
func (tr *txReport) SendDone(ok bool) { tr.rt.a.sendDone(tr, ok) }

// txSubmit is the send-time dispatcher shared by every in-flight report.
func txSubmit(x any) {
	tr := x.(*txReport)
	tr.rt.a.submit(tr.rt, tr)
}

// Agent runs the query service at one node.
type Agent struct {
	eng    *sim.Engine
	id     NodeID
	tree   *routing.Tree
	shaper Shaper
	host   Host
	sink   Sink
	cfg    Config

	// queries holds the registered runtimes in ascending spec.ID, so
	// every maintenance walk (which mutates shaper and sleep state, and
	// may schedule events) iterates deterministically. Nodes carry a
	// handful of queries; linear lookups win over a map.
	queries []*runtime
	stats   Stats

	// Freelists and scratch space for the per-interval hot path. An
	// interval's rows are sized by the node's children, so intervals
	// are pooled per agent; reports are alike everywhere and come from
	// the run's shared pool.
	ivFree      []*interval
	reports     *sim.Pool[txReport]
	missScratch []NodeID

	consecSendFail int
	stopped        bool
}

// runtimeFor returns the runtime registered for q, or nil.
func (a *Agent) runtimeFor(q ID) *runtime {
	for _, rt := range a.queries {
		if rt.spec.ID == q {
			return rt
		}
	}
	return nil
}

// firstQuery and queryAfterID iterate the registered queries in
// ascending ID, robustly against re-entrant registration changes
// (failure handlers can deregister mid-walk).
func (a *Agent) firstQuery() *runtime {
	if len(a.queries) == 0 {
		return nil
	}
	return a.queries[0]
}

func (a *Agent) queryAfterID(prev ID) *runtime {
	for _, rt := range a.queries {
		if rt.spec.ID > prev {
			return rt
		}
	}
	return nil
}

// newInterval takes an interval from the pool (or grabs an arena slab
// with one arena-backed row per child, none for a leaf) and resets it
// for (rt, k). Rows past the children, the rare mid-recovery reporters,
// grow from the arena.
func (a *Agent) newInterval(rt *runtime, k int) *interval {
	iv := sim.TakeLast(&a.ivFree)
	if iv == nil {
		iv = sim.ArenaGrab[interval](a.eng, "query.interval")
		iv.rows = sim.ArenaSlice[row](a.eng, "query.iv.rows", len(a.tree.Children(a.id)))
	}
	iv.k = k
	iv.coverage = 0
	iv.rows = iv.rows[:0]
	iv.timeout = nil
	iv.rt = rt
	return iv
}

// releaseInterval recycles an interval with no pending timeout.
func (a *Agent) releaseInterval(iv *interval) {
	iv.rt = nil
	a.ivFree = sim.ArenaAppend(a.eng, "query.ivfree", a.ivFree, iv)
}

// newTxReport takes a report from the run's pool and binds it to rt.
func (a *Agent) newTxReport(rt *runtime) *txReport {
	tr := a.reports.Get()
	tr.rt = rt
	return tr
}

func (a *Agent) releaseTxReport(tr *txReport) { a.reports.Put(tr) }

// NewAgent wires a query agent. sink may be nil (non-root nodes); host
// must deliver reports to the MAC or a power manager's gate. queries is
// how many queries the node will register: it sizes the query table,
// and registering more appends past it.
func NewAgent(eng *sim.Engine, id NodeID, tree *routing.Tree, shaper Shaper, host Host, sink Sink, cfg Config, queries int) *Agent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := sim.ArenaGrab[Agent](eng, "query.agent")
	*a = Agent{
		eng:     eng,
		id:      id,
		tree:    tree,
		shaper:  shaper,
		host:    host,
		sink:    sink,
		cfg:     cfg,
		queries: sim.ArenaSlice[*runtime](eng, "query.queries", queries)[:0],
		reports: sim.ArenaPool[txReport](eng, "query.txreport"),
	}
	return a
}

// Stats returns a copy of the agent counters.
func (a *Agent) Stats() Stats { return a.stats }

// Shaper returns the agent's shaper.
func (a *Agent) Shaper() Shaper { return a.shaper }

// Stop halts interval generation (used when a node is killed or
// crashes). Pending tick events fire but do nothing, breaking each
// query's tick chain; Resume restarts them.
func (a *Agent) Stop() { a.stopped = true }

// Resume restarts a stopped agent (node recovery): every query whose
// tick chain broke while the node was down is rescheduled at its next
// interval boundary. Intervals missed during the outage are skipped —
// their data is simply gone, as on real hardware.
func (a *Agent) Resume() {
	if !a.stopped {
		return
	}
	a.stopped = false
	now := a.eng.Now()
	for rt := a.firstQuery(); rt != nil; rt = a.queryAfterID(rt.spec.ID) {
		if rt.tickK >= 0 {
			continue
		}
		k := 0
		if now > rt.spec.Phase {
			k = int((now-rt.spec.Phase)/rt.spec.Period) + 1
		}
		rt.tickK = k
		a.eng.ScheduleArg(rt.spec.IntervalStart(k), queryTick, rt)
	}
}

// Register installs a query at this node and schedules its intervals.
// Must be called before the query's phase. The agent and its shaper
// keep spec, not a copy of it: the caller stores each query's Spec once
// per run and must not change it while the run lasts.
func (a *Agent) Register(spec *Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if a.runtimeFor(spec.ID) != nil {
		return fmt.Errorf("query %d: already registered", spec.ID)
	}
	children := a.tree.Children(a.id)
	rt := sim.ArenaGrab[runtime](a.eng, "query.runtime")
	*rt = runtime{
		a:          a,
		spec:       spec,
		intervals:  sim.ArenaSlice[*interval](a.eng, "query.rt.intervals", 2)[:0],
		consecMiss: sim.ArenaSlice[missEntry](a.eng, "query.rt.miss", len(children))[:0],
	}
	// Insert keeping ascending spec.ID order.
	a.queries = sim.ArenaAppend(a.eng, "query.queries.grow", a.queries, rt)
	for i := len(a.queries) - 1; i > 0 && a.queries[i-1].spec.ID > rt.spec.ID; i-- {
		a.queries[i-1], a.queries[i] = a.queries[i], a.queries[i-1]
	}
	a.shaper.QueryAdded(spec, children)
	a.eng.ScheduleArg(spec.Phase, queryTick, rt)
	return nil
}

func (a *Agent) startInterval(rt *runtime, k int) {
	if a.stopped {
		rt.tickK = -1
		return
	}
	if a.runtimeFor(rt.spec.ID) != rt {
		return // deregistered
	}
	// Schedule the next interval first so the chain never breaks.
	rt.tickK = k + 1
	a.eng.ScheduleArg(rt.spec.IntervalStart(k+1), queryTick, rt)

	iv := a.newInterval(rt, k)
	iv.coverage = 1
	a.stats.Samples++
	rt.intervals = sim.ArenaAppend(a.eng, "query.rt.intervals.grow", rt.intervals, iv)
	for _, c := range a.tree.Children(a.id) {
		// A pooled interval's rows fit the children it was made for; a
		// child gained by re-parenting grows them from the arena.
		iv.rows = sim.ArenaAppend(a.eng, "query.iv.rows.grow", iv.rows, row{id: int32(c)})
	}
	if len(iv.rows) == 0 {
		a.closeInterval(rt, iv)
		return
	}
	deadline := a.shaper.CollectDeadline(rt.spec.ID, k)
	if now := a.eng.Now(); deadline < now {
		deadline = now
	}
	iv.timeout = a.eng.ScheduleArg(deadline, intervalTimeout, iv)
}

// closeInterval finalizes interval k: takes it out of the table and
// recycles it, informs the shaper of missing children, updates failure
// counters, and routes the aggregate. Anything arriving for the round
// later is late, as for a round never seen.
func (a *Agent) closeInterval(rt *runtime, iv *interval) {
	if iv.timeout != nil {
		a.eng.Cancel(iv.timeout)
		iv.timeout = nil
	}
	k, coverage := iv.k, int(iv.coverage)
	// Take the round out of the table (one pruned while open is already
	// out, and its deadline closes it here). Then prune a far-past round
	// still open: reports for it pass through as late from now on, and
	// its deadline (bounded by roughly one period) closes and recycles it.
	rt.removeInterval(k)
	rt.removeInterval(k - pruneDepth)

	// Detach the scratch buffer while in use: onChildFailed can re-enter
	// closeInterval (child removal closes other intervals), and the nested
	// call must not clobber this one's missing list.
	missing := a.missScratch[:0]
	a.missScratch = nil
	for _, r := range iv.rows {
		if r.kind == rowOwed {
			missing = sim.ArenaAppend(a.eng, "query.missing", missing, NodeID(r.id))
		}
	}
	a.releaseInterval(iv)
	a.shaper.IntervalClosed(rt.spec.ID, k, missing)
	for _, c := range missing {
		if n := rt.bumpMiss(c); a.cfg.FailureThreshold > 0 && n >= a.cfg.FailureThreshold {
			rt.zeroMiss(c)
			a.host.ChildFailed(c)
		}
	}
	a.missScratch = missing[:0]

	if a.id == a.tree.Root() {
		latency := a.eng.Now() - rt.spec.IntervalStart(k)
		if a.sink != nil {
			a.sink.IntervalClosed(rt.spec.ID, k, latency, coverage)
		}
		return
	}

	tr := a.newTxReport(rt)
	tr.rep = Report{Query: rt.spec.ID, Interval: k, Coverage: coverage}
	sendAt, phase := a.shaper.ReportReady(rt.spec.ID, k, a.eng.Now())
	tr.rep.Phase = phase
	if now := a.eng.Now(); sendAt < now {
		sendAt = now
	}
	a.eng.ScheduleArg(sendAt, txSubmit, tr)
}

func (a *Agent) submit(rt *runtime, tr *txReport) {
	rep := &tr.rep
	if a.stopped {
		a.releaseTxReport(tr)
		return
	}
	if a.runtimeFor(rep.Query) != rt {
		// The query was deregistered (mid-run stop, burst teardown) while
		// this report waited for its send time: drop it silently — the
		// shaper's schedule state for it is already gone.
		a.releaseTxReport(tr)
		return
	}
	parent := a.tree.Parent(a.id)
	if parent == routing.None {
		// Orphaned: our parent detached us (possibly a false-positive
		// failure detection on a congested link). The report is lost;
		// treat it as a send failure so the parent-failure path kicks in
		// and re-attaches us to the tree.
		a.stats.SendFailures++
		if !rep.PassThrough {
			a.shaper.ReportFailed(rep.Query, rep.Interval)
		}
		a.consecSendFail++
		if a.cfg.FailureThreshold > 0 && a.consecSendFail >= a.cfg.FailureThreshold {
			a.consecSendFail = 0
			a.host.ParentFailed()
		}
		a.releaseTxReport(tr)
		return
	}
	bytes := ReportBytes
	if rep.Phase != NoPhase {
		bytes += PhaseBytes
		a.stats.PhaseUpdatesSent++
	}
	if rep.PassThrough {
		a.stats.PassThroughsSent++
	} else {
		a.stats.ReportsSent++
	}
	a.host.SendReport(parent, rep, bytes, tr)
}

// sendDone is the MAC-completion path for a submitted report. The MAC is
// finished with the payload when it runs, so the txReport is recycled on
// every exit.
func (a *Agent) sendDone(tr *txReport, ok bool) {
	rep := &tr.rep
	if a.stopped {
		a.releaseTxReport(tr)
		return
	}
	if a.runtimeFor(rep.Query) != tr.rt {
		// Deregistered while the MAC held the frame: the delivery already
		// happened (or failed) on the air, but the shaper must not see
		// hooks for a query it has forgotten.
		a.releaseTxReport(tr)
		return
	}
	if !ok {
		a.stats.SendFailures++
		a.consecSendFail++
		if !rep.PassThrough {
			a.shaper.ReportFailed(rep.Query, rep.Interval)
		}
		if a.cfg.FailureThreshold > 0 && a.consecSendFail >= a.cfg.FailureThreshold {
			a.consecSendFail = 0
			a.host.ParentFailed()
		}
		a.releaseTxReport(tr)
		return
	}
	a.consecSendFail = 0
	if !rep.PassThrough {
		a.shaper.ReportSent(rep.Query, rep.Interval)
	}
	a.releaseTxReport(tr)
}

// HandleReport processes a report received from a child (via the node's
// MAC dispatcher).
func (a *Agent) HandleReport(from NodeID, rep *Report) {
	rt := a.runtimeFor(rep.Query)
	if rt == nil {
		return // query not registered here (should not happen in-tree)
	}
	if a.id == a.tree.Root() && a.sink != nil {
		latency := a.eng.Now() - rt.spec.IntervalStart(rep.Interval)
		a.sink.ReportArrived(rep.Query, rep.Interval, latency, rep.Coverage)
	}
	if rep.PassThrough {
		a.handleLate(rt, rep)
		return
	}
	if a.tree.Parent(from) != a.id {
		// Stale edge: a node we no longer parent (or never did) is still
		// sending to us mid-recovery. Keep its data flowing but do not
		// feed the per-child schedule.
		a.handleLate(rt, rep)
		return
	}

	rt.zeroMiss(from)
	a.shaper.ReportReceived(rep.Query, from, rep.Interval, rep.Phase)

	iv := rt.interval(rep.Interval)
	if iv == nil {
		a.stats.LateReports++
		a.handleLate(rt, rep)
		return
	}
	if i := iv.expectedIdx(from); i >= 0 {
		if iv.rows[i].kind == rowGot {
			return // duplicate scheduled report (should be filtered by MAC)
		}
		iv.rows[i].kind = rowGot
	} else {
		// Not among the children owed (added mid-interval): aggregate but
		// do not let it close the interval.
		for _, r := range iv.rows {
			if r.kind == rowExtra && NodeID(r.id) == from {
				return // duplicate
			}
		}
		iv.rows = sim.ArenaAppend(a.eng, "query.iv.rows.grow", iv.rows, row{id: int32(from), kind: rowExtra})
	}
	iv.coverage += int32(rep.Coverage)

	if !iv.complete() {
		return // still waiting
	}
	a.closeInterval(rt, iv)
}

// handleLate merges a late or pass-through report into a still-open
// interval if possible, otherwise forwards it upstream unchanged. This
// keeps deep sources' data flowing to the root even when intermediate
// deadlines fired, so root-side latency reflects true end-to-end delay.
func (a *Agent) handleLate(rt *runtime, rep *Report) {
	if iv := rt.interval(rep.Interval); iv != nil {
		iv.coverage += int32(rep.Coverage)
		return
	}
	if a.id == a.tree.Root() {
		return // already recorded by the sink
	}
	tr := a.newTxReport(rt)
	tr.rep = Report{
		Query:       rep.Query,
		Interval:    rep.Interval,
		Coverage:    rep.Coverage,
		Phase:       NoPhase,
		PassThrough: true,
	}
	a.submit(rt, tr)
}

// HandleControl routes shaper control traffic.
func (a *Agent) HandleControl(from NodeID, msg any) {
	a.shaper.ControlReceived(from, msg)
}

// ChildAdded registers a new dependency on child (it was re-parented
// under this node). It takes effect from the next interval of each query.
func (a *Agent) ChildAdded(child NodeID) {
	for rt := a.firstQuery(); rt != nil; rt = a.queryAfterID(rt.spec.ID) {
		a.shaper.ChildAdded(rt.spec.ID, child)
	}
}

// ChildRemoved drops the dependency on child: open intervals stop waiting
// for it and the shaper forgets its expected reception times.
func (a *Agent) ChildRemoved(child NodeID) {
	for rt := a.firstQuery(); rt != nil; rt = a.queryAfterID(rt.spec.ID) {
		a.shaper.ChildRemoved(rt.spec.ID, child)
		rt.dropMiss(child)
		// intervalAfter, not a range: closing removes and recycles the
		// round, can prune others and re-enters via the failure handlers.
		for iv, k := rt.intervalAfter(-1), 0; iv != nil; iv = rt.intervalAfter(k) {
			k = iv.k
			i := iv.expectedIdx(child)
			if i < 0 {
				continue
			}
			iv.rows = append(iv.rows[:i], iv.rows[i+1:]...)
			if iv.complete() {
				a.closeInterval(rt, iv)
			}
		}
	}
}

// ParentChanged informs the shaper the node was re-parented.
func (a *Agent) ParentChanged() {
	for rt := a.firstQuery(); rt != nil; rt = a.queryAfterID(rt.spec.ID) {
		a.shaper.ParentChanged(rt.spec.ID)
	}
	a.consecSendFail = 0
}

// Deregister removes query q from this node: interval generation stops,
// open intervals are abandoned, and the shaper forgets the schedule so
// Safe Sleep no longer wakes the node for it. Unknown IDs are no-ops.
func (a *Agent) Deregister(q ID) {
	rt := a.runtimeFor(q)
	if rt == nil {
		return
	}
	// Ascending k (the slice order): Deregister runs on the event path
	// (mid-run query stops).
	for _, iv := range rt.intervals {
		if iv.timeout != nil {
			a.eng.Cancel(iv.timeout)
			iv.timeout = nil
		}
		a.releaseInterval(iv)
	}
	rt.intervals = rt.intervals[:0]
	for i, cur := range a.queries {
		if cur == rt {
			a.queries = append(a.queries[:i], a.queries[i+1:]...)
			break
		}
	}
	a.shaper.QueryRemoved(q)
}

// Queries returns the IDs of registered queries in ascending order.
func (a *Agent) Queries() []ID {
	out := make([]ID, 0, len(a.queries))
	for _, rt := range a.queries {
		out = append(out, rt.spec.ID)
	}
	return out
}
