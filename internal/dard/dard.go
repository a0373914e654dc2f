// Package dard implements the paper's contribution: Distributed Adaptive
// Routing for Datacenter networks. Every end host detects its outgoing
// elephant flows (§3.1), lazily creates one monitor per source-destination
// ToR pair (§2.4.1), assembles per-path BoNF state by querying the
// switches on those paths (§2.4.2), and runs the selfish flow scheduling
// algorithm (§2.5, Algorithm 1) on a randomized interval, moving one
// elephant flow per round off its most congested active path onto the
// globally most underloaded path when that strictly improves the minimum
// BoNF by more than δ.
package dard

import (
	"sort"

	"dard/internal/ctlmsg"
	"dard/internal/fpcmp"
	"dard/internal/sched"
	"dard/internal/topology"
)

// Control message sizes in bytes (§4.3.4): a state query from a host to
// a switch and a single-port switch reply. The actual wire formats live
// in internal/ctlmsg and marshal to exactly these sizes; monitors account
// control traffic from those formats' wire sizes, so these constants
// serve as documentation plus cross-checks in tests.
const (
	QueryBytes = 48
	ReplyBytes = 32
)

// Defaults for the control loop (§3.1; values lost to transcription use
// the testbed settings documented in DESIGN.md).
const (
	// DefaultQueryInterval is how often a monitor queries switch states.
	DefaultQueryInterval = 1.0
	// DefaultScheduleInterval is the base scheduling period.
	DefaultScheduleInterval = 5.0
	// DefaultScheduleJitter is the uniform random extra added to each
	// scheduling period to prevent synchronized path switching.
	DefaultScheduleJitter = 5.0
	// DefaultDelta is the BoNF improvement threshold δ in bits/s; the
	// testbed uses 10 Mbps.
	DefaultDelta = 10e6
	// DefaultCtlRetryMax is how many times a monitor retries a lost
	// control exchange within one query round.
	DefaultCtlRetryMax = 2
	// CtlRetryBackoff is the base backoff in seconds before a monitor's
	// first retry, doubled per subsequent retry.
	CtlRetryBackoff = 0.05
	// DefaultDeadAfter is how many consecutive missed query rounds (or
	// zero-goodput scheduling rounds, on the packet engine) declare a
	// switch or path dead.
	DefaultDeadAfter = 3
)

// Options tunes the DARD control loop. The zero value uses the paper's
// settings.
type Options struct {
	// QueryInterval is the switch state polling period in seconds.
	QueryInterval float64
	// ScheduleInterval is the base selfish-scheduling period in seconds.
	ScheduleInterval float64
	// ScheduleJitter is the uniform random addition to every scheduling
	// period; set DisableJitter to run the ablation without it.
	ScheduleJitter float64
	// DisableJitter removes the randomized interval (the paper credits
	// it for preventing synchronized flow shifting).
	DisableJitter bool
	// Delta is the δ threshold of Algorithm 1 in bits/s.
	Delta float64
	// PerFlowMonitors disables monitor sharing: every elephant gets its
	// own monitor instead of one per source-destination ToR pair. This
	// is the ablation for §2.4.1's On-demand Monitoring — same
	// scheduling behaviour, strictly more control traffic.
	PerFlowMonitors bool
	// Faults injects control-channel faults (message loss, duplication,
	// fixed delay) into every monitor↔switch exchange. The zero value is
	// a reliable channel, on which every round folds synchronously from
	// the controller's port view.
	Faults ctlmsg.Faults
	// CtlRetryMax is how many times a monitor retries a lost exchange
	// within one query round before giving the switch up for that round.
	// Zero means DefaultCtlRetryMax; negative disables retries.
	CtlRetryMax int
	// DeadAfter is how many consecutive missed query rounds make a
	// monitor presume a switch dead (its ports then read zero bandwidth),
	// and, on the packet engine, how many zero-progress scheduling rounds
	// mark a flow's path dead. Zero or negative means DefaultDeadAfter.
	DeadAfter int
}

func (o *Options) applyDefaults() {
	if o.QueryInterval <= 0 {
		o.QueryInterval = DefaultQueryInterval
	}
	if o.ScheduleInterval <= 0 {
		o.ScheduleInterval = DefaultScheduleInterval
	}
	if o.ScheduleJitter <= 0 && !o.DisableJitter {
		o.ScheduleJitter = DefaultScheduleJitter
	}
	if o.DisableJitter {
		o.ScheduleJitter = 0
	}
	if fpcmp.IsZero(o.Delta) {
		o.Delta = DefaultDelta
	}
	if o.Delta < 0 {
		o.Delta = 0
	}
	if o.CtlRetryMax == 0 {
		o.CtlRetryMax = DefaultCtlRetryMax
	}
	if o.CtlRetryMax < 0 {
		o.CtlRetryMax = 0
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = DefaultDeadAfter
	}
}

// Controller is the DARD end-host control plane. Flows start on their
// ECMP hash path (DARD uses ECMP as the default routing mechanism, §2.4)
// and elephants are adaptively re-routed by their source host. It is a
// sched.Policy and sched.Observer written against sched.Host, so the
// same controller runs on the flow engine and on the packet runtime.
//
//dardsnap:fields encoder=Controller.SnapshotState decoder=Controller.RestoreState
type Controller struct {
	opts  Options
	hosts map[topology.NodeID]*hostState

	// monitorSeq issues every monitor a run-unique serial, the stable
	// identity its query timers carry in checkpoints (snapshot.go). The
	// monitor key cannot serve: keys are reused when a released monitor's
	// pair sees a new elephant, and a stale tick must not rebind to the
	// successor.
	monitorSeq int64

	// scratch is the buffer set all monitors' fault-free query rounds
	// share (collector.go).
	scratch *roundScratch //dardlint:snapfield scratch, rebuilt on first use

	// Shifts counts accepted flow moves across the run (observability).
	Shifts int
	// Rounds counts executed scheduling rounds across the run.
	Rounds int
}

var (
	_ sched.Policy   = (*Controller)(nil)
	_ sched.Observer = (*Controller)(nil)
)

// FlowProgress is an optional host capability: per-flow transport
// progress. A host that offers it (only the packet runtime does) lets
// the controller also detect dead paths from the data plane: an
// elephant whose cumulative ACK stays put for DeadAfter consecutive
// scheduling rounds marks its path dead even while the switches still
// answer — the persistent-zero-goodput half of failure detection.
type FlowProgress interface {
	// FlowAcked returns the flow's cumulative-ACK point; ok is false
	// while the flow has no transport state.
	FlowAcked(id int) (acked int, ok bool)
}

// New creates a DARD controller.
func New(opts Options) *Controller {
	opts.applyDefaults()
	return &Controller{
		opts:  opts,
		hosts: make(map[topology.NodeID]*hostState),
	}
}

// Name implements sched.Policy.
func (c *Controller) Name() string { return "DARD" }

// Options returns the effective (defaulted) options.
func (c *Controller) Options() Options { return c.opts }

// InitialPath implements sched.Policy with the ECMP default route. DARD
// needs no global setup: all state is created on demand as elephants
// appear.
func (c *Controller) InitialPath(env sched.Host, f sched.Flow) int {
	return sched.ECMP{}.InitialPath(env, f)
}

// Arrived implements sched.Observer; DARD acts on elephants only.
func (c *Controller) Arrived(sched.Host, sched.Flow) {}

// Elephant implements sched.Observer: it registers the elephant with its
// source host's monitor for the destination ToR, creating the monitor on
// demand (§2.4.1).
func (c *Controller) Elephant(env sched.Host, f sched.Flow) {
	if f.SrcToR == f.DstToR {
		return // single path; nothing to monitor or shift
	}
	h := c.host(f.Src)
	key := c.keyFor(f)
	m := h.monitors[key]
	if m == nil {
		m = newMonitor(env, c, f.Src, f.SrcToR, f.DstToR)
		h.monitors[key] = m
		m.scheduleQuery(env)
	}
	m.flows[f.ID] = struct{}{}
	if !h.roundActive {
		h.roundActive = true
		c.scheduleRound(env, f.Src, h)
	}
}

// Departed implements sched.Observer: it releases an elephant from its
// monitor; a monitor with no elephant flows left is released (§2.4.1).
func (c *Controller) Departed(_ sched.Host, f sched.Flow) {
	h := c.hosts[f.Src]
	if h == nil {
		return
	}
	key := c.keyFor(f)
	m := h.monitors[key]
	if m == nil {
		return
	}
	if _, ok := m.flows[f.ID]; !ok {
		return // not an elephant of this monitor
	}
	delete(m.flows, f.ID)
	delete(m.lastAcked, f.ID)
	delete(m.stalls, f.ID)
	if len(m.flows) == 0 {
		m.released = true
		m.coll.release() // nothing reads its fold now
		delete(h.monitors, key)
	}
}

func (c *Controller) host(n topology.NodeID) *hostState {
	h := c.hosts[n]
	if h == nil {
		h = &hostState{monitors: make(map[monitorKey]*monitor)}
		c.hosts[n] = h
	}
	return h
}

// monitorKey identifies a monitor within a host: the destination ToR
// when monitors are shared (the default), or a per-flow synthetic key for
// the PerFlowMonitors ablation.
type monitorKey int64

func (c *Controller) keyFor(f sched.Flow) monitorKey {
	if c.opts.PerFlowMonitors {
		return monitorKey(-1 - int64(f.ID))
	}
	return monitorKey(f.DstToR)
}

// hostState is the per-end-host daemon state (§3.1): the monitor list and
// the flow scheduler's round timer.
//
//dardsnap:fields encoder=Controller.SnapshotState decoder=Controller.RestoreState
type hostState struct {
	monitors    map[monitorKey]*monitor
	roundActive bool
}

// scheduleRound arms the host's next selfish-scheduling round: the base
// interval plus a uniform random jitter (§3.1).
func (c *Controller) scheduleRound(env sched.Host, n topology.NodeID, h *hostState) {
	d := c.opts.ScheduleInterval
	if c.opts.ScheduleJitter > 0 {
		d += env.Rand().Float64() * c.opts.ScheduleJitter
	}
	env.AfterRef(d, roundRef(n), c.roundFn(env, n, h))
}

// roundFn builds one firing of the host's round chain; restore rebuilds
// it from the timer's host-ID operand (snapshot.go).
func (c *Controller) roundFn(env sched.Host, n topology.NodeID, h *hostState) func() {
	return func() {
		if len(h.monitors) == 0 {
			h.roundActive = false
			return
		}
		c.runRound(env, h)
		c.scheduleRound(env, n, h)
	}
}

// runRound executes Algorithm 1 over every monitor of the host, in
// stable key order so runs are deterministic (Go map iteration is not).
func (c *Controller) runRound(env sched.Host, h *hostState) {
	c.Rounds++
	keys := make([]monitorKey, 0, len(h.monitors))
	for k := range h.monitors {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		c.selfishSchedule(env, h.monitors[k])
	}
}

// selfishSchedule is one monitor's round of Algorithm 1 (with the
// transcription fix documented in DESIGN.md): find the monitor's active
// path with the smallest BoNF and the globally largest-BoNF path; shift
// one flow between them if the estimated post-shift BoNF of the target
// still exceeds the current minimum by more than δ. The round reads
// only the paths the rule can pick (monitor.decide); only a host that
// offers FlowProgress folds the whole vector first, for its stall
// marks.
func (c *Controller) selfishSchedule(env sched.Host, m *monitor) {
	if prog, ok := env.(FlowProgress); ok {
		m.materialize() // stall marks write into the vector
		if m.pv != nil {
			c.detectStalls(env, prog, m)
		}
	}
	dec, ok := m.decide(env, c.opts.Delta)
	if !ok {
		return
	}
	// Shift one elephant flow from the overloaded path to the target.
	victim, ok := m.victimOn(env, dec.From)
	if !ok {
		return
	}
	if err := env.SetFlowPath(victim, dec.To); err == nil {
		c.Shifts++
	}
}

// detectStalls advances the zero-goodput trackers one scheduling round:
// an elephant whose cumulative ACK has not moved for DeadAfter
// consecutive rounds marks its current path dead in the monitor's PV.
// The next assemble rebuilds the PV from switch state, so a recovered
// path clears naturally.
func (c *Controller) detectStalls(env sched.Host, prog FlowProgress, m *monitor) {
	if m.lastAcked == nil {
		m.lastAcked = make(map[int]int)
		m.stalls = make(map[int]int)
	}
	ids := make([]int, 0, len(m.flows))
	for id := range m.flows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	marked := false
	for _, id := range ids {
		if !env.FlowActive(id) {
			continue
		}
		acked, ok := prog.FlowAcked(id)
		if !ok {
			continue
		}
		if prev, seen := m.lastAcked[id]; seen && acked == prev {
			m.stalls[id]++
		} else {
			m.stalls[id] = 0
		}
		m.lastAcked[id] = acked
		if p := env.FlowPath(id); m.stalls[id] >= c.opts.DeadAfter && p >= 0 && p < len(m.pv) {
			m.pv[p].BoNF = 0
			marked = true
		}
	}
	if marked {
		m.markDead(env)
	}
}

// evacuate re-runs selection immediately over the surviving paths when a
// path has died (§2.3's failover motivation): without it, flows stranded
// on a zero-BoNF path would drain at Algorithm 1's one-shift-per-round
// pace. Each iteration moves one stranded flow; the loop stops as soon
// as no dead path holds an active flow, Algorithm 1 declines the shift,
// or every stranded flow has had its chance.
func (c *Controller) evacuate(env sched.Host, m *monitor) {
	for i := 0; i < len(m.flows); i++ {
		stranded := false
		for _, p := range m.activePaths(env, len(m.pv)) {
			if p < len(m.dead) && m.dead[p] {
				stranded = true
				break
			}
		}
		if !stranded {
			return
		}
		dec, ok := m.decide(env, c.opts.Delta)
		if !ok || dec.From >= len(m.dead) || !m.dead[dec.From] {
			return
		}
		victim, ok := m.victimOn(env, dec.From)
		if !ok {
			return
		}
		if err := env.SetFlowPath(victim, dec.To); err != nil {
			return
		}
		c.Shifts++
	}
}
