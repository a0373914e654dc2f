// Package psim runs workloads on the packet-level simulator: it couples
// simnet links, TCP New Reno connections, and a path-selection policy
// (ECMP, pVLB, DARD, or TeXCP) into one experiment, mirroring the
// flow-level runner at packet granularity. It backs the paper's
// testbed-style CDFs (Figure 5) and the TeXCP reordering comparison
// (Figures 13-14).
package psim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

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
	// Flows is the workload.
	Flows []workload.Flow
	// Seed drives all policy randomness.
	Seed int64
	// ElephantAge is the detection threshold in seconds (0 means 1 s,
	// negative disables).
	ElephantAge float64
	// BufferPackets sizes link queues (0 means simnet default).
	BufferPackets int
	// MaxTime stops the run (0 means 1e4 s).
	MaxTime float64
	// LinkEvents schedules link failures and repairs. A failed link
	// flushes its queue and drops arrivals (traced as FailDrop).
	LinkEvents []topology.LinkEvent
	// TCP tunes the endpoints.
	TCP tcp.Options
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
	cfg  Config
	topo topology.Network
	g    *topology.Graph
	net  *simnet.Net
	disp *tcp.Dispatcher
	rng  *rand.Rand
	// obs is the Policy's sched.Observer side (nil when it observes
	// nothing), resolved once by NewRuntime.
	obs sched.Observer

	flows     []*FlowState
	remaining int

	eleCounts []int
	// portStamp is each switch's ctlmsg.StateSource.PortStamp, bumped
	// whenever an exit link's elephant count or capacity changes.
	portStamp    []uint64
	controlBytes float64
	// linkBuf is scratch for resolving a path's links without
	// materializing the path (elephant accounting on every reroute).
	linkBuf []topology.LinkID

	tracer trace.Tracer // never nil (Nop when tracing is off)

	// Probe state. The armed timer is canceled when the last flow
	// departs: a canceled kernel event is skipped without advancing the
	// clock, so probes scheduled past the final completion cannot move
	// SimTime.
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
	hosts := cfg.Topo.Hosts()
	for _, wf := range cfg.Flows {
		if wf.Src < 0 || wf.Src >= len(hosts) || wf.Dst < 0 || wf.Dst >= len(hosts) || wf.Src == wf.Dst {
			return nil, fmt.Errorf("psim: flow %d has invalid endpoints", wf.ID)
		}
	}
	for _, ev := range cfg.LinkEvents {
		if ev.Link < 0 || int(ev.Link) >= cfg.Topo.Graph().NumLinks() {
			return nil, fmt.Errorf("psim: link event references link %d out of range", ev.Link)
		}
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return nil, fmt.Errorf("psim: link event at invalid time %g", ev.At)
		}
	}
	rt := &Runtime{
		cfg:  cfg,
		topo: cfg.Topo,
		g:    cfg.Topo.Graph(),
		disp: tcp.NewDispatcher(),
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	mss := cfg.TCP.MSSBytes
	if mss <= 0 {
		mss = 1460 // keep in sync with tcp.Options defaults
	}
	net, err := simnet.NewNet(cfg.Topo, cfg.BufferPackets, (mss+40)*8, rt.disp.Deliver)
	if err != nil {
		return nil, err
	}
	rt.net = net
	rt.obs, _ = cfg.Policy.(sched.Observer)
	rt.eleCounts = make([]int, rt.g.NumLinks())
	rt.portStamp = make([]uint64, rt.g.NumNodes())
	rt.tracer = trace.OrNop(cfg.Tracer)
	if rt.tracer.Enabled() {
		rt.net.SetTracer(rt.tracer)
	}
	return rt, nil
}

// Tracer returns the run's tracer (never nil; Nop when tracing is off).
func (rt *Runtime) Tracer() trace.Tracer { return rt.tracer }

// Now returns the simulation time.
func (rt *Runtime) Now() float64 { return rt.net.K.Now() }

// Net exposes the packet network (utilization counters for TeXCP).
func (rt *Runtime) Net() *simnet.Net { return rt.net }

// Topo returns the topology.
func (rt *Runtime) Topo() topology.Network { return rt.topo }

// Rand returns the run's deterministic random source.
func (rt *Runtime) Rand() *rand.Rand { return rt.rng }

// Seed returns the configured seed (sched.Host). Path policies hash it
// with the flow identity, so initial assignments match across policies
// and engines given the same seed.
func (rt *Runtime) Seed() int64 { return rt.cfg.Seed }

// After schedules a policy timer.
func (rt *Runtime) After(d float64, fn func()) { rt.net.K.After(d, fn) }

// AfterRef implements sched.Host: After, ignoring the checkpoint
// descriptor (the packet kernel has no checkpoints).
func (rt *Runtime) AfterRef(d float64, _ sched.TimerRef, fn func()) { rt.net.K.After(d, fn) }

// PathSet returns the implicit equal-cost path set between two ToRs.
func (rt *Runtime) PathSet(srcToR, dstToR topology.NodeID) topology.PathSet {
	return rt.topo.PathSet(srcToR, dstToR)
}

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

// RecordControl accounts control-plane bytes.
func (rt *Runtime) RecordControl(bytes float64) {
	rt.controlBytes += bytes
	if rt.tracer.Enabled() {
		rt.tracer.Emit(trace.Event{T: rt.Now(), Kind: trace.KindControlMsg, Flow: -1, Link: -1, V: bytes})
	}
}

// ElephantsOnLink reports the active elephant flows assigned to a link.
func (rt *Runtime) ElephantsOnLink(l topology.LinkID) int { return rt.eleCounts[l] }

// PortStamp returns the switch's port-state stamp (ctlmsg.StateSource).
func (rt *Runtime) PortStamp(sw topology.NodeID) uint64 { return rt.portStamp[sw] }

// LinkCapacity returns a link's effective bandwidth: zero while failed,
// nominal otherwise — the bandwidth half of the switch state monitors
// query, matching flowsim.Sim.LinkCapacity.
func (rt *Runtime) LinkCapacity(l topology.LinkID) float64 {
	if rt.net.LinkDown(l) {
		return 0
	}
	return rt.g.Link(l).Capacity
}

// Route materializes a flow's host-to-host source route for a path
// index. The connection owns the returned slice, so this allocates one
// exact-size route; the path links themselves come straight from the
// implicit path set.
func (rt *Runtime) Route(f *FlowState, pathIdx int) []topology.LinkID {
	ps := rt.topo.PathSet(f.SrcToR, f.DstToR)
	rt.linkBuf = ps.AppendLinks(pathIdx, rt.linkBuf[:0])
	route := make([]topology.LinkID, 0, len(rt.linkBuf)+2)
	route = append(route, rt.topo.HostUplink(f.Src))
	route = append(route, rt.linkBuf...)
	route = append(route, rt.topo.HostDownlink(f.Dst))
	return route
}

// SetFlowPath reroutes a flow; future packets (and retransmissions) take
// the new path.
func (rt *Runtime) SetFlowPath(id, pathIdx int) error {
	f := rt.flow(id)
	if f == nil {
		return fmt.Errorf("psim: no flow %d", id)
	}
	ps := rt.topo.PathSet(f.SrcToR, f.DstToR)
	if pathIdx < 0 || pathIdx >= ps.Len() {
		return fmt.Errorf("psim: path index %d out of range [0,%d)", pathIdx, ps.Len())
	}
	if pathIdx == f.PathIdx {
		return nil
	}
	old := f.PathIdx
	if f.Elephant && f.active {
		rt.countElephant(f, -1)
	}
	f.PathIdx = pathIdx
	f.Conn.SetRoute(rt.Route(f, pathIdx))
	if f.Elephant && f.active {
		rt.countElephant(f, +1)
	}
	if rt.tracer.Enabled() {
		rt.tracer.Emit(trace.Event{
			T: rt.Now(), Kind: trace.KindPathSwitch,
			Flow: int32(f.ID), Link: -1, A: int64(old), B: int64(pathIdx),
		})
	}
	return nil
}

// countElephant adds sign to the elephant count of every link on f's
// route and bumps the port stamps of the switches those links leave.
func (rt *Runtime) countElephant(f *FlowState, sign int) {
	ps := rt.topo.PathSet(f.SrcToR, f.DstToR)
	rt.linkBuf = append(rt.linkBuf[:0], rt.topo.HostUplink(f.Src))
	rt.linkBuf = ps.AppendLinks(f.PathIdx, rt.linkBuf)
	rt.linkBuf = append(rt.linkBuf, rt.topo.HostDownlink(f.Dst))
	for _, l := range rt.linkBuf {
		rt.eleCounts[l] += sign
		rt.portStamp[rt.g.Link(l).From]++
	}
}

// Run executes the workload to completion (or MaxTime) and collects
// results.
func (rt *Runtime) Run() (*Results, error) { return rt.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the run stops between
// one-second simulation horizons once ctx is canceled and returns the
// context's error. The packet kernel has no pause/snapshot protocol, so
// unlike flowsim a canceled packet run cannot be resumed.
func (rt *Runtime) RunContext(ctx context.Context) (*Results, error) {
	cfg := rt.cfg
	hosts := rt.topo.Hosts()
	rt.flows = make([]*FlowState, len(cfg.Flows))
	rt.remaining = len(cfg.Flows)
	for _, ev := range cfg.LinkEvents {
		ev := ev
		rt.net.K.After(ev.At, func() {
			rt.net.SetLinkDown(ev.Link, ev.Down)
			rt.portStamp[rt.g.Link(ev.Link).From]++
		})
	}
	for i := range cfg.Flows {
		wf := cfg.Flows[i]
		rt.net.K.After(wf.Arrival, func() {
			src, dst := hosts[wf.Src], hosts[wf.Dst]
			f := &FlowState{
				Flow: sched.Flow{
					ID: wf.ID, Src: src, Dst: dst,
					SrcToR: rt.topo.ToROf(src), DstToR: rt.topo.ToROf(dst),
				},
				Arrival:  rt.Now(),
				SizeBits: wf.SizeBits,
				active:   true,
			}
			rt.flows[wf.ID] = f

			idx := cfg.Policy.InitialPath(rt, f.Flow)
			if idx < 0 || idx >= rt.topo.PathSet(f.SrcToR, f.DstToR).Len() {
				idx = 0
			}
			f.PathIdx = idx
			conn, err := tcp.NewConn(rt.net, wf.ID, rt.Route(f, idx), wf.SizeBits, cfg.TCP, func(*tcp.Conn) {
				rt.depart(f)
			})
			if err != nil {
				// Validated in NewRuntime; a failure here is a bug.
				panic(fmt.Sprintf("psim: NewConn: %v", err))
			}
			f.Conn = conn
			rt.disp.Register(conn)
			if rt.tracer.Enabled() {
				conn.Tracer = rt.tracer
				// T equals both f.Arrival and the connection's
				// StartTime (Start runs below at the same kernel
				// time), so FlowEnd minus this reproduces the
				// reported TransferTime bit-for-bit.
				rt.tracer.Emit(trace.Event{
					T: rt.Now(), Kind: trace.KindFlowStart,
					Flow: int32(f.ID), Link: -1,
					A: int64(f.Src), B: int64(f.Dst), V: f.SizeBits,
				})
			}
			if pr, ok := cfg.Policy.(PacketRouter); ok {
				conn.RoutePicker = pr.PacketRoute(rt, f)
			}
			if rt.obs != nil {
				rt.obs.Arrived(rt, f.Flow)
			}
			if cfg.ElephantAge >= 0 {
				rt.net.K.After(cfg.ElephantAge, func() {
					if f.active {
						f.Elephant = true
						rt.countElephant(f, +1)
						if rt.obs != nil {
							rt.obs.Elephant(rt, f.Flow)
						}
					}
				})
			}
			conn.Start()
		})
	}
	if rt.tracer.Enabled() && cfg.ProbeInterval > 0 && rt.remaining > 0 {
		rt.probeEvery = cfg.ProbeInterval
		rt.lastBits = make([]float64, rt.g.NumLinks())
		rt.armProbe()
	}
	// Advance in one-second horizons and stop as soon as the workload
	// drains: policy timer chains (TeXCP probes, DARD queries) re-arm
	// forever and must not keep the simulation alive until MaxTime.
	for horizon := 1.0; rt.remaining > 0 && horizon <= cfg.MaxTime && rt.net.K.Pending() > 0; horizon++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("psim: canceled at t=%g: %w", rt.Now(), err)
		}
		rt.net.K.Run(horizon)
	}
	return rt.collect(), nil
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
	now := rt.Now()
	if dt := now - rt.lastProbeAt; dt > 0 {
		for i := 0; i < rt.g.NumLinks(); i++ {
			l := topology.LinkID(i)
			bits := rt.net.BitsSent(l)
			util := (bits - rt.lastBits[i]) / (rt.g.Link(l).Capacity * dt)
			rt.lastBits[i] = bits
			rt.tracer.Sample(trace.MetricLinkUtil, int64(i), now, util)
			rt.tracer.Sample(trace.MetricQueueBits, int64(i), now, rt.net.QueueBits(l))
		}
		for _, f := range rt.flows {
			if f == nil || !f.active || f.Conn == nil {
				continue
			}
			rt.tracer.Sample(trace.MetricFlowCwnd, int64(f.ID), now, f.Conn.State().Cwnd)
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
		rt.countElephant(f, -1)
	}
	if rt.tracer.Enabled() {
		rt.tracer.Emit(trace.Event{
			T: rt.Now(), Kind: trace.KindFlowEnd,
			Flow: int32(f.ID), Link: -1, A: int64(f.PathIdx), V: f.SizeBits,
		})
	}
	if rt.remaining == 0 && rt.probeArmed {
		// The run ends at the last completion; a probe scheduled past it
		// must not advance the clock (canceled events are skipped), so
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
	Policy       string
	Flows        []FlowStat
	Unfinished   int
	SimTime      float64
	ControlBytes float64
	// CoreUtilization is the average utilization of the top-tier
	// (bisection) links over the run: total bits the core-adjacent links
	// carried divided by their aggregate capacity-time. §4.3.3 compares
	// DARD's and TeXCP's bisection bandwidth through this quantity.
	CoreUtilization float64
}

func (rt *Runtime) collect() *Results {
	r := &Results{
		Policy:       rt.cfg.Policy.Name(),
		SimTime:      rt.Now(),
		ControlBytes: rt.controlBytes,
	}
	r.CoreUtilization = rt.coreUtilization()
	for _, f := range rt.flows {
		if f == nil || f.Conn == nil {
			r.Unfinished++
			continue
		}
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
	for i := 0; i < rt.g.NumLinks(); i++ {
		l := topology.LinkID(i)
		link := rt.g.Link(l)
		if rt.g.Node(link.From).Kind != topology.Core && rt.g.Node(link.To).Kind != topology.Core {
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
