// Package psim runs workloads on the packet-level simulator: it couples
// simnet links, TCP New Reno connections, and a path-selection policy
// (ECMP, pVLB, DARD, or TeXCP) into one experiment. The switch state
// and accounting policies read (elephant counts, link capacities and
// failures, the port-change feed, control bytes, trace events) are
// sched.Core, the same implementation the flow-level engine embeds;
// psim adds the packet clock, simnet's data plane and TCP transfers.
// It backs the paper's testbed-style CDFs
// (Figure 5) and the TeXCP reordering comparison (Figures 13-14).
package psim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dard/internal/fpcmp"
	"dard/internal/metrics"
	"dard/internal/sched"
	"dard/internal/simnet"
	"dard/internal/tcp"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// FlowState is a flow's runtime state: the identity and endpoints
// policies see, plus its path, elephant flag and TCP connection.
type FlowState struct {
	sched.Flow
	PathIdx  int
	Elephant bool
	Arrival  float64
	SizeBits float64
	Conn     *tcp.Conn

	active bool
}

// PacketRouter is an optional sched.Policy extension for per-packet
// path selection (TeXCP); when implemented, the returned picker
// overrides the flow's sticky route.
type PacketRouter interface {
	PacketRoute(rt *Runtime, f *FlowState) func() []topology.LinkID
}

// Config parameterizes a packet-level run.
type Config struct {
	// Topo is the network.
	Topo topology.Network
	// Policy selects paths. The runtime notifies it of flow lifecycle
	// events if it implements sched.Observer.
	Policy sched.Policy
	// Arrivals is the workload (nil: no flows), pulled one flow at a
	// time as the run reaches it. Each flow is checked with the flow
	// engine's predicate (workload.Flow.Check) before it is scheduled;
	// a bad one fails the run.
	Arrivals workload.Source
	// Seed drives all policy randomness.
	Seed int64
	// ElephantAge is the detection threshold in seconds (0 means 1 s,
	// negative disables).
	ElephantAge float64
	// MaxTime stops the run (0 means 1e4 s).
	MaxTime float64
	// LinkEvents schedules link failures and repairs. A failed link
	// flushes its queue and drops arrivals (traced as FailDrop).
	LinkEvents []topology.LinkEvent
	// Tracer receives structured events (flow lifecycle, path switches,
	// drops, retransmissions, control messages) and probe samples. Nil
	// disables tracing; the packet hot path then carries no tracer at
	// all.
	Tracer trace.Tracer
	// ProbeInterval spaces link-utilization, queue, and cwnd samples in
	// seconds when tracing is enabled. Zero or negative disables probes.
	ProbeInterval float64
}

// Runtime is the packet-level experiment state handed to policies. It
// implements sched.Host, and dard.FlowProgress for zero-goodput stall
// detection.
type Runtime struct {
	sched.Core // switch state and accounting

	cfg  Config
	net  *simnet.Net
	disp *tcp.Dispatcher
	// obs is the Policy's sched.Observer side (nil when it observes
	// nothing), resolved once by NewRuntime.
	obs sched.Observer

	flows      []*FlowState // the arrived flows, by ID
	remaining  int          // flows armed or arrived and not yet departed
	arrivalSeq int64        // the kernel sequence number of every arrival
	err        error        // a bad flow the source yielded mid-run

	linkBuf []topology.LinkID // Route's scratch, copied into each route it returns

	// Probe state. The armed timer is canceled when the last flow
	// departs: a canceled kernel event leaves the queue without
	// advancing the clock, so probes scheduled past the final completion
	// cannot move SimTime.
	probeEvery  float64
	probeTimer  simnet.Timer
	probeArmed  bool
	lastBits    []float64
	lastProbeAt float64
}

// NewRuntime validates the config and builds the runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("psim: nil topology")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("psim: nil policy")
	}
	if fpcmp.IsZero(cfg.ElephantAge) {
		cfg.ElephantAge = 1.0
	}
	if fpcmp.IsZero(cfg.MaxTime) {
		cfg.MaxTime = 1e4
	}
	if err := sched.CheckLinkEvents(cfg.Topo, cfg.LinkEvents); err != nil {
		return nil, fmt.Errorf("psim: %w", err)
	}
	if cfg.Arrivals == nil {
		cfg.Arrivals = workload.List(nil)
	}
	rt := &Runtime{cfg: cfg, disp: tcp.NewDispatcher()}
	net, err := simnet.NewNet(cfg.Topo, 0, (tcp.DefaultMSSBytes+40)*8, rt.disp.Deliver)
	if err != nil {
		return nil, err
	}
	rt.net = net
	rt.Core = sched.NewCore(cfg.Topo, cfg.Seed, cfg.Tracer, net.K.Now)
	rt.obs, _ = cfg.Policy.(sched.Observer)
	if rt.Tracer().Enabled() {
		rt.net.SetTracer(rt.Tracer())
	}
	return rt, nil
}

// Now returns the simulation time.
func (rt *Runtime) Now() float64 { return rt.net.K.Now() }

// Net exposes the packet network (utilization counters for TeXCP).
func (rt *Runtime) Net() *simnet.Net { return rt.net }

// After schedules a policy timer.
func (rt *Runtime) After(d float64, fn func()) { rt.net.K.After(d, fn) }

// AfterRef implements sched.Host: After, ignoring the checkpoint
// descriptor (the packet kernel has no checkpoints).
func (rt *Runtime) AfterRef(d float64, _ sched.TimerRef, fn func()) { rt.net.K.After(d, fn) }

// FlowPath returns the path index of the flow with the given ID.
func (rt *Runtime) FlowPath(id int) int { return rt.flows[id].PathIdx }

// FlowActive reports whether the flow with the given ID is still
// transferring (false before its arrival).
func (rt *Runtime) FlowActive(id int) bool {
	f := rt.flow(id)
	return f != nil && f.active
}

// FlowByID returns the identity of the flow with the given ID
// (sched.Host); ok is false before its arrival.
func (rt *Runtime) FlowByID(id int) (sched.Flow, bool) {
	f := rt.flow(id)
	if f == nil {
		return sched.Flow{}, false
	}
	return f.Flow, true
}

// FlowAcked returns the flow's cumulative-ACK point (dard.FlowProgress).
func (rt *Runtime) FlowAcked(id int) (int, bool) {
	f := rt.flow(id)
	if f == nil || f.Conn == nil {
		return 0, false
	}
	return f.Conn.State().SndUna, true
}

// flow returns the flow with the given ID, nil before its arrival.
func (rt *Runtime) flow(id int) *FlowState {
	if id < 0 || id >= len(rt.flows) {
		return nil
	}
	return rt.flows[id]
}

// Route materializes a flow's host-to-host source route for a path
// index. The connection owns the returned slice, so this allocates one
// route, a copy of the links resolved into scratch straight from the
// implicit path set.
func (rt *Runtime) Route(f *FlowState, pathIdx int) []topology.LinkID {
	rt.linkBuf = rt.AppendRoute(rt.linkBuf[:0], f.Flow, rt.PathSet(f.SrcToR, f.DstToR), pathIdx)
	return slices.Clone(rt.linkBuf)
}

// SetFlowPath reroutes a flow; future packets (and retransmissions) take
// the new path.
func (rt *Runtime) SetFlowPath(id, pathIdx int) error {
	f := rt.flow(id)
	if f == nil {
		return fmt.Errorf("psim: no flow %d", id)
	}
	ps := rt.PathSet(f.SrcToR, f.DstToR)
	if pathIdx < 0 || pathIdx >= ps.Len() {
		return fmt.Errorf("psim: path index %d out of range [0,%d)", pathIdx, ps.Len())
	}
	if pathIdx == f.PathIdx {
		return nil
	}
	old, route := f.PathIdx, rt.Route(f, pathIdx)
	if f.Elephant && f.active {
		rt.CountElephant(f.Conn.Route(), -1)
		rt.CountElephant(route, +1)
	}
	f.PathIdx = pathIdx
	f.Conn.SetRoute(route)
	rt.EmitPathSwitch(f.ID, old, pathIdx)
	return nil
}

// Run executes the workload to completion (or MaxTime) and collects
// results.
func (rt *Runtime) Run() (*Results, error) { return rt.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the run stops between
// one-second simulation horizons once ctx is canceled and returns the
// context's error. The packet kernel has no pause/snapshot protocol, so
// unlike flowsim a canceled packet run cannot be resumed.
func (rt *Runtime) RunContext(ctx context.Context) (*Results, error) {
	for _, ev := range rt.cfg.LinkEvents {
		ev := ev
		rt.net.K.After(ev.At, func() {
			rt.net.SetLinkDown(ev.Link, ev.Down)
			rt.SetLinkDown(ev.Link, ev.Down)
		})
	}
	rt.arrivalSeq = rt.net.K.Reserve()
	if err := rt.armArrival(); err != nil {
		return nil, err
	}
	if rt.Tracer().Enabled() && rt.cfg.ProbeInterval > 0 && rt.remaining > 0 {
		rt.probeEvery = rt.cfg.ProbeInterval
		rt.lastBits = make([]float64, rt.Topo().Graph().NumLinks())
		rt.armProbe()
	}
	// Advance in one-second horizons and stop as soon as the workload
	// drains: policy timer chains (TeXCP probes, DARD queries) re-arm
	// forever and must not keep the simulation alive until MaxTime.
	for horizon := 1.0; rt.remaining > 0 && horizon <= rt.cfg.MaxTime && rt.net.K.Pending() > 0; horizon++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("psim: canceled at t=%g: %w", rt.Now(), err)
		}
		rt.net.K.Run(horizon)
		if rt.err != nil {
			return nil, rt.err
		}
	}
	return rt.collect(), nil
}

// armArrival schedules the source's next flow, once it passes the flow
// engine's check. Every arrival goes at its absolute time under the one
// sequence number RunContext reserved after the link events, so it ties
// after the link events at its time and before every other event, as if
// all arrivals had been queued before the run began.
func (rt *Runtime) armArrival() error {
	wf, ok := rt.cfg.Arrivals.Peek()
	if !ok {
		return nil
	}
	if err := wf.Check(len(rt.flows), len(rt.Topo().Hosts()), rt.Now()); err != nil {
		return fmt.Errorf("psim: %w", err)
	}
	rt.remaining++
	rt.net.K.AtSeq(wf.Arrival, rt.arrivalSeq, rt.arrive)
	return nil
}

// arrive starts the flow armArrival scheduled: it takes the flow from
// the source, arms the following one and opens the flow's connection. A
// bad following flow stops the run at once.
func (rt *Runtime) arrive() {
	wf, _ := rt.cfg.Arrivals.Next()
	f := &FlowState{Arrival: rt.Now(), SizeBits: wf.SizeBits, active: true}
	f.Flow, _, f.PathIdx = rt.Admit(rt, rt.cfg.Policy, wf)
	rt.flows = append(rt.flows, f)
	if err := rt.armArrival(); err != nil {
		rt.err = err
		rt.net.K.Stop()
		return
	}
	conn, err := tcp.NewConn(rt.net, f.ID, rt.Route(f, f.PathIdx), f.SizeBits, tcp.Options{}, func(*tcp.Conn) {
		rt.depart(f)
	})
	if err != nil {
		// Checked by armArrival; a failure here is a bug.
		panic(fmt.Sprintf("psim: NewConn: %v", err))
	}
	f.Conn = conn
	rt.disp.Register(conn)
	if rt.Tracer().Enabled() {
		conn.Tracer = rt.Tracer()
	}
	// T equals both f.Arrival and the connection's StartTime (Start runs
	// below at the same kernel time), so FlowEnd minus this reproduces
	// the reported TransferTime bit-for-bit.
	rt.EmitFlowStart(f.Flow, f.SizeBits)
	if pr, ok := rt.cfg.Policy.(PacketRouter); ok {
		conn.RoutePicker = pr.PacketRoute(rt, f)
	}
	if rt.obs != nil {
		rt.obs.Arrived(rt, f.Flow)
	}
	if rt.cfg.ElephantAge >= 0 {
		rt.net.K.After(rt.cfg.ElephantAge, func() {
			if f.active {
				f.Elephant = true
				rt.ElephantStarted(f.Conn.Route())
				if rt.obs != nil {
					rt.obs.Elephant(rt, f.Flow)
				}
			}
		})
	}
	conn.Start()
}

func (rt *Runtime) armProbe() {
	rt.probeArmed = true
	rt.probeTimer = rt.net.K.After(rt.probeEvery, rt.probeTick)
}

// probeTick samples every link's utilization (bits sent since the last
// tick over capacity·dt) and queue occupancy, plus each active flow's
// congestion window.
func (rt *Runtime) probeTick() {
	rt.probeArmed = false
	now, g, tr := rt.Now(), rt.Topo().Graph(), rt.Tracer()
	if dt := now - rt.lastProbeAt; dt > 0 {
		for i := 0; i < g.NumLinks(); i++ {
			l := topology.LinkID(i)
			bits := rt.net.BitsSent(l)
			util := (bits - rt.lastBits[i]) / (g.Link(l).Capacity * dt)
			rt.lastBits[i] = bits
			tr.Sample(trace.MetricLinkUtil, int64(i), now, util)
			tr.Sample(trace.MetricQueueBits, int64(i), now, rt.net.QueueBits(l))
		}
		for _, f := range rt.flows {
			if !f.active {
				continue
			}
			tr.Sample(trace.MetricFlowCwnd, int64(f.ID), now, f.Conn.State().Cwnd)
		}
	}
	rt.lastProbeAt = now
	if rt.remaining > 0 {
		rt.armProbe()
	}
}

func (rt *Runtime) depart(f *FlowState) {
	if !f.active {
		return
	}
	f.active = false
	rt.remaining--
	if f.Elephant {
		rt.ElephantEnded(f.Conn.Route())
	}
	rt.EmitFlowEnd(f.ID, f.PathIdx, f.SizeBits)
	if rt.remaining == 0 && rt.probeArmed {
		// The run ends at the last completion; a probe scheduled past it
		// must not advance the clock (canceled events never fire), so
		// SimTime and CoreUtilization match the untraced run exactly.
		rt.probeTimer.Cancel()
		rt.probeArmed = false
	}
	if rt.obs != nil {
		rt.obs.Departed(rt, f.Flow)
	}
}

// FlowStat is a packet-level flow outcome.
type FlowStat struct {
	ID           int
	Arrival      float64
	TransferTime float64 // NaN if unfinished
	PathSwitches int
	Retx         int
	TotalSegs    int
	RetxRate     float64
	Elephant     bool
}

// Completed reports whether the transfer finished.
func (fs FlowStat) Completed() bool { return !math.IsNaN(fs.TransferTime) }

// Results aggregates a packet-level run.
type Results struct {
	Policy string
	// Flows holds one entry per arrived flow, in ID order; flows MaxTime
	// kept from arriving stay in the source and have none.
	Flows []FlowStat
	// Unfinished counts arrived flows that did not complete.
	Unfinished   int
	SimTime      float64
	ControlBytes float64
	// PeakElephants is the most elephants active at once (Figure 15's
	// x-axis).
	PeakElephants int
	// CoreUtilization is the average utilization of the top-tier
	// (bisection) links over the run: total bits the core-adjacent links
	// carried divided by their aggregate capacity-time. §4.3.3 compares
	// DARD's and TeXCP's bisection bandwidth through this quantity.
	CoreUtilization float64
}

func (rt *Runtime) collect() *Results {
	r := &Results{
		Policy:        rt.cfg.Policy.Name(),
		SimTime:       rt.Now(),
		ControlBytes:  rt.ControlBytes(),
		PeakElephants: rt.PeakElephants(),
	}
	r.CoreUtilization = rt.coreUtilization()
	for _, f := range rt.flows {
		fs := FlowStat{
			ID:           f.ID,
			Arrival:      f.Arrival,
			TransferTime: f.Conn.TransferTime(),
			PathSwitches: f.Conn.PathSwitches,
			Retx:         f.Conn.Retx,
			TotalSegs:    f.Conn.TotalSegs(),
			RetxRate:     f.Conn.RetxRate(),
			Elephant:     f.Elephant,
		}
		if !fs.Completed() {
			r.Unfinished++
		}
		r.Flows = append(r.Flows, fs)
	}
	return r
}

// coreUtilization averages the utilization of every link touching a
// top-tier (core/intermediate) switch over the whole run.
func (rt *Runtime) coreUtilization() float64 {
	if rt.Now() <= 0 {
		return 0
	}
	var carried, capacityTime float64
	g := rt.Topo().Graph()
	for i := 0; i < g.NumLinks(); i++ {
		l := topology.LinkID(i)
		link := g.Link(l)
		if g.Node(link.From).Kind != topology.Core && g.Node(link.To).Kind != topology.Core {
			continue
		}
		carried += rt.net.BitsSent(l)
		capacityTime += link.Capacity * rt.Now()
	}
	if fpcmp.IsZero(capacityTime) {
		return 0
	}
	return carried / capacityTime
}

// TransferTimes returns the transfer-time sample of completed flows.
func (r *Results) TransferTimes() *metrics.Sample {
	var s metrics.Sample
	for _, f := range r.Flows {
		if f.Completed() {
			s.Add(f.TransferTime)
		}
	}
	return &s
}

// RetxRates returns the per-flow retransmission-rate sample of completed
// flows (Figure 14).
func (r *Results) RetxRates() *metrics.Sample {
	var s metrics.Sample
	for _, f := range r.Flows {
		if f.Completed() {
			s.Add(f.RetxRate)
		}
	}
	return &s
}

// PathSwitchCounts returns the per-flow path switch sample.
func (r *Results) PathSwitchCounts() *metrics.Sample {
	var s metrics.Sample
	for _, f := range r.Flows {
		if f.Completed() {
			s.Add(float64(f.PathSwitches))
		}
	}
	return &s
}
