// Package dard reproduces "DARD: Distributed Adaptive Routing for
// Datacenter Networks" (Wu & Yang, ICDCS 2012): end hosts selfishly shift
// elephant flows from overloaded to underloaded equal-cost paths using
// only switch state they query themselves, with no central coordinator.
//
// The package is a facade over the internal substrates:
//
//   - internal/topology — fat-tree, Clos, three-tier, dragonfly, and
//     DCell fabrics behind one path-provider contract
//   - internal/addressing — NIRA-style hierarchical addressing (§2.3)
//   - internal/flowsim — flow-level max-min fluid simulator
//   - internal/simnet + internal/tcp — packet-level simulator with
//     TCP New Reno
//   - internal/dard — DARD's detector, monitors, and Algorithm 1
//   - internal/sched, internal/hedera, internal/texcp — the ECMP, pVLB,
//     centralized simulated-annealing, and TeXCP baselines
//   - internal/game — the congestion-game convergence model (Appendix B)
//
// A Scenario describes one experiment (topology x scheduler x traffic
// pattern); Run executes it and returns a Report with the paper's
// metrics: transfer times, path-switch counts, retransmission rates, and
// control-plane overhead.
//
//	rep, err := dard.Scenario{
//	    Topology:  dard.TopologySpec{Kind: dard.FatTree, P: 4},
//	    Scheduler: dard.SchedulerDARD,
//	    Pattern:   dard.PatternStride,
//	    Duration:  30,
//	}.Run()
package dard

import (
	"context"
	"fmt"

	"dard/internal/ctlmsg"
	idard "dard/internal/dard"
	"dard/internal/flowsim"
	"dard/internal/fpcmp"
	"dard/internal/hedera"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/texcp"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// Scheduler names a flow scheduling strategy.
type Scheduler string

// The schedulers of the paper's evaluation (§4).
const (
	// SchedulerECMP is hash-based random flow-level scheduling.
	SchedulerECMP Scheduler = "ECMP"
	// SchedulerPVLB is periodical Valiant Load Balancing.
	SchedulerPVLB Scheduler = "pVLB"
	// SchedulerDARD is the paper's distributed adaptive routing.
	SchedulerDARD Scheduler = "DARD"
	// SchedulerAnnealing is the Hedera-style centralized controller
	// (demand estimation + simulated annealing). Flow engine only.
	SchedulerAnnealing Scheduler = "SimulatedAnnealing"
	// SchedulerTeXCP is distributed per-packet traffic engineering.
	// Packet engine only.
	SchedulerTeXCP Scheduler = "TeXCP"
)

// Pattern names a traffic pattern (§4.1).
type Pattern string

// The paper's three traffic patterns.
const (
	PatternRandom    Pattern = "random"
	PatternStaggered Pattern = "staggered"
	PatternStride    Pattern = "stride"
)

// Engine selects the simulation substrate.
type Engine string

// Engines.
const (
	// EngineFlow is the max-min fluid simulator: fast, used for the
	// large sweeps (Tables 4-7, Figures 4, 7-12, 15).
	EngineFlow Engine = "flow"
	// EnginePacket is the packet-level simulator with TCP New Reno:
	// used for the TCP-sensitive results (Figures 5, 13, 14).
	EnginePacket Engine = "packet"
)

// Tuning carries the DARD control-loop knobs (§3.1); zero values take
// the paper's settings. Scenario.Validate rejects non-finite values and
// positive intervals under 1 ms.
type Tuning struct {
	// QueryInterval is the monitor's switch-state polling period (s).
	QueryInterval float64
	// ScheduleInterval is the base selfish-scheduling period (s).
	ScheduleInterval float64
	// ScheduleJitter is the uniform random addition per round (s).
	ScheduleJitter float64
	// DisableJitter removes the randomization (ablation).
	DisableJitter bool
	// DeltaBps is Algorithm 1's δ threshold in bits/s.
	DeltaBps float64
	// PerFlowMonitors disables §2.4.1's monitor sharing (ablation).
	PerFlowMonitors bool
	// CtlLossProb is the per-message control-channel loss probability in
	// [0,1); monitors retry lost exchanges with exponential backoff.
	CtlLossProb float64
	// CtlDupProb is the per-message control-channel duplication
	// probability in [0,1); duplicates cost wire bytes, nothing else.
	CtlDupProb float64
	// CtlDelaySec adds a fixed extra round-trip delay to every control
	// exchange attempt.
	CtlDelaySec float64
	// CtlRetryMax caps the retries per lost exchange within a query
	// round (0: default 2, negative: no retries).
	CtlRetryMax int
	// DeadAfterMisses is how many consecutive missed query rounds make a
	// monitor presume a switch dead (0: default 3); on the packet engine
	// it is also the zero-goodput rounds before a path is declared dead.
	DeadAfterMisses int
}

func (t Tuning) options(seed int64) idard.Options {
	return idard.Options{
		QueryInterval:    t.QueryInterval,
		ScheduleInterval: t.ScheduleInterval,
		ScheduleJitter:   t.ScheduleJitter,
		DisableJitter:    t.DisableJitter,
		Delta:            t.DeltaBps,
		PerFlowMonitors:  t.PerFlowMonitors,
		Faults:           t.faults(seed),
		CtlRetryMax:      t.CtlRetryMax,
		DeadAfter:        t.DeadAfterMisses,
	}
}

// faults builds the control-channel fault model; the scenario seed keys
// the fault randomness so runs stay deterministic without a second knob.
func (t Tuning) faults(seed int64) ctlmsg.Faults {
	if fpcmp.IsZero(t.CtlLossProb) && fpcmp.IsZero(t.CtlDupProb) && fpcmp.IsZero(t.CtlDelaySec) {
		return ctlmsg.Faults{}
	}
	return ctlmsg.Faults{
		LossProb: t.CtlLossProb,
		DupProb:  t.CtlDupProb,
		DelayS:   t.CtlDelaySec,
		Seed:     seed,
	}
}

// LinkFailure schedules a duplex link failure (or repair) during a run,
// identified by the two switch/host names it connects. The same
// schedule drives either engine: the flow engine zeroes the link's
// capacity, the packet engine drops its packets, and in both cases DARD
// monitors see the link's bandwidth collapse and route around it.
type LinkFailure struct {
	// AtSec is the event time.
	AtSec float64
	// From and To name the endpoints, e.g. "aggr1_1" and "core1".
	From, To string
	// Repair restores the link instead of failing it.
	Repair bool
}

// Scenario is one experiment: a topology, a scheduler, and a workload.
//
// The json directive registers Scenario with the snapfield analyzer in
// JSON mode: exported fields ride encoding/json reflection inside
// sessionWire, but any unexported field must be explicitly carried
// across Snapshot/ResumeSession (as flowsimReference is, via
// sessionWire.Reference) or a checkpointed run silently loses it.
//
//dardsnap:json encoder=Session.Snapshot decoder=ResumeSession
type Scenario struct {
	// Topology to build (zero value: p=8 fat-tree).
	Topology TopologySpec
	// Scheduler to run (default SchedulerDARD).
	Scheduler Scheduler
	// Pattern picks destinations (default PatternRandom).
	Pattern Pattern
	// RatePerHost is the Poisson flow arrival rate per host in flows/s
	// (default 1).
	RatePerHost float64
	// Duration is the arrival window in seconds (default 30). The
	// simulation continues until every flow drains.
	Duration float64
	// FileSizeMB is the elephant transfer size (default 128 MB, the
	// paper's setting; scale down for quick runs).
	FileSizeMB float64
	// Seed makes the run deterministic (default 1).
	Seed int64
	// Engine selects flow-level or packet-level simulation (default
	// EngineFlow).
	Engine Engine
	// DARD tunes the DARD control loop.
	DARD Tuning
	// VLBIntervalSec is pVLB's re-pick period (default 5 s; at least
	// 1 ms when positive).
	VLBIntervalSec float64
	// ElephantAgeSec is the detection threshold (default 1 s).
	ElephantAgeSec float64
	// MaxTimeSec aborts stuck runs (default: engine default).
	MaxTimeSec float64
	// LinkFailures schedules link failures and repairs on either engine:
	// DARD reroutes around them, static schedulers strand until repair.
	LinkFailures []LinkFailure
	// Topo, when non-nil, reuses a pre-built topology instead of
	// building Topology (useful to share one across scenarios).
	Topo *Topology
	// Tracer, when set, receives the run's structured events and probe
	// samples (see internal/trace); the caller keeps ownership and
	// handles export. A *trace.Recorder passed here gets its meta
	// populated by Run.
	Tracer trace.Tracer
	// TraceDir, when non-empty and Tracer is nil, records the run and
	// writes TraceFileName() under this directory as JSONL. Each
	// experiment cell names its own file, so sweeps can share one
	// directory.
	TraceDir string
	// TraceProbeInterval spaces the utilization/queue/rate probes in
	// seconds while tracing: zero means DefaultTraceProbeInterval,
	// negative disables probes, and a positive spacing must be at least
	// 1 ms. Ignored when not tracing.
	TraceProbeInterval float64
	// Steady runs the workload as an open stream (flow engine only).
	// Every run pulls its flows from one stream of Poisson arrivals, so
	// Duration > 0 bounds the arrival window as in any run and, with the
	// same WindowSec, a bounded steady run reports what the plain run
	// does. A negative Duration streams arrivals indefinitely, so the run
	// ends at MaxTimeSec with in-flight flows reported unfinished.
	Steady bool
	// WindowSec aggregates completed transfers into tumbling windows of
	// this width and reports per-window throughput and Jain fairness in
	// Report.Windows (flow engine only). Zero means DefaultWindowSec in
	// steady mode and disabled otherwise; negative disables.
	WindowSec float64

	// flowsimReference selects flowsim's retained reference scheduler
	// instead of the incremental engine. Both must produce byte-identical
	// reports; equivalence tests flip this via WithReferenceEngine (see
	// export_test.go) to enforce that.
	flowsimReference bool
}

func (s Scenario) withDefaults() Scenario {
	if s.Scheduler == "" {
		s.Scheduler = SchedulerDARD
	}
	if s.Pattern == "" {
		s.Pattern = PatternRandom
	}
	if fpcmp.IsZero(s.RatePerHost) {
		s.RatePerHost = 1
	}
	if fpcmp.IsZero(s.Duration) {
		s.Duration = 30
	}
	if fpcmp.IsZero(s.FileSizeMB) {
		s.FileSizeMB = 128
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Engine == "" {
		s.Engine = EngineFlow
	}
	if s.Steady && fpcmp.IsZero(s.WindowSec) {
		s.WindowSec = DefaultWindowSec
	}
	return s
}

// DefaultWindowSec is the steady-state metrics window width when
// WindowSec is left zero.
const DefaultWindowSec = 1.0

// Run builds the topology (unless Topo is set) and the workload, and
// executes the scenario.
func (s Scenario) Run() (*Report, error) { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: when ctx is canceled
// the simulation stops at its next boundary and the returned error
// matches both ErrCanceled and the context's own error under errors.Is.
// Cancellation is abandonment — for a run that can pause, checkpoint,
// and continue, use NewSession.
func (s Scenario) RunContext(ctx context.Context) (*Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// A TraceDir without a caller's Tracer records into a fresh Recorder
	// that is written out once the run completes.
	var rec *trace.Recorder
	if s.Tracer == nil && s.TraceDir != "" {
		rec = trace.NewRecorder(trace.RecorderOptions{})
		s.Tracer = rec
	}
	var (
		rep *Report
		err error
	)
	if s.Engine == EnginePacket {
		rep, err = s.runPacket(ctx)
	} else {
		var sess *Session
		if sess, err = buildSession(s, nil); err == nil {
			rep, err = sess.Run(ctx)
		}
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := s.writeTrace(rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// prepare builds the topology (unless Topo is set) and the workload, the
// run's stream of Poisson arrivals. A *trace.Recorder tracer gets the
// run's header.
func (s Scenario) prepare() (*Topology, *workload.OpenPoisson, error) {
	topo := s.Topo
	if topo == nil {
		var err error
		topo, err = s.Topology.Build()
		if err != nil {
			return nil, nil, err
		}
	}
	pattern, err := s.pattern(topo)
	if err != nil {
		return nil, nil, err
	}
	src, err := workload.NewOpenPoisson(topo.layout, workload.Config{
		Pattern:     pattern,
		RatePerHost: s.RatePerHost,
		Duration:    s.Duration,
		SizeBytes:   s.FileSizeMB * (1 << 20),
		Seed:        s.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	if r, ok := s.Tracer.(*trace.Recorder); ok {
		r.SetMeta(s.traceMeta(topo))
	}
	return topo, src, nil
}

// pattern builds the destination-picking pattern for the topology.
func (s Scenario) pattern(topo *Topology) (workload.Pattern, error) {
	switch s.Pattern {
	case PatternRandom:
		return workload.Random{L: topo.layout}, nil
	case PatternStaggered:
		return workload.NewStaggered(topo.layout), nil
	case PatternStride:
		return workload.Stride{N: topo.layout.NumHosts, Step: topo.layout.HostsPerPod()}, nil
	}
	return nil, fmt.Errorf("dard: unknown pattern %q", s.Pattern)
}

// policy builds the scenario's path policy, which either engine drives.
// SimulatedAnnealing runs on the flow engine only and TeXCP on the
// packet engine only.
func (s Scenario) policy() (sched.Policy, error) {
	switch s.Scheduler {
	case SchedulerECMP:
		return sched.ECMP{}, nil
	case SchedulerPVLB:
		return &sched.PVLB{Interval: s.VLBIntervalSec}, nil
	case SchedulerDARD:
		return idard.New(s.DARD.options(s.Seed)), nil
	case SchedulerAnnealing:
		if s.Engine != EngineFlow {
			return nil, fmt.Errorf("dard: the centralized scheduler runs on Engine: EngineFlow")
		}
		return hedera.New(hedera.Options{}), nil
	case SchedulerTeXCP:
		if s.Engine != EnginePacket {
			return nil, fmt.Errorf("dard: TeXCP requires Engine: EnginePacket (per-packet splitting)")
		}
		return texcp.New(), nil
	}
	return nil, fmt.Errorf("dard: unknown scheduler %q", s.Scheduler)
}

// dardCounters copies the DARD controller's shift and round counts into
// the report; other policies leave them zero.
func dardCounters(rep *Report, pol sched.Policy) {
	if dc, ok := pol.(*idard.Controller); ok {
		rep.DARDShifts = dc.Shifts
		rep.DARDRounds = dc.Rounds
	}
}

// flowConfig assembles the flow-engine configuration on the workload
// src. Run, new sessions and restored sessions all build their engines
// through buildSession and this, so a restored session reconstructs the
// same run an uninterrupted one executes.
func (s Scenario) flowConfig(topo *Topology, src workload.Source) (flowsim.Config, sched.Policy, error) {
	ctl, err := s.policy()
	if err != nil {
		return flowsim.Config{}, nil, err
	}
	events, err := s.linkEvents(topo)
	if err != nil {
		return flowsim.Config{}, nil, err
	}
	return flowsim.Config{
		Net:           topo.net,
		Controller:    ctl,
		Arrivals:      src,
		Seed:          s.Seed,
		ElephantAge:   s.ElephantAgeSec,
		MaxTime:       s.MaxTimeSec,
		LinkEvents:    events,
		Tracer:        s.Tracer,
		ProbeInterval: s.probeInterval(),
		Reference:     s.flowsimReference,
	}, ctl, nil
}

// finishFlowReport assembles the facade report from a completed flow-run
// on the workload src: the base metrics, the controller's DARD counters,
// and (when a window width is configured) the steady-state windowed
// metrics. The flows a MaxTimeSec cut kept from arriving are still in a
// bounded src, and count as unfinished.
func (s Scenario) finishFlowReport(topo *Topology, res *flowsim.Results, ctl sched.Policy, src workload.Source) (*Report, error) {
	rep := flowReport(s, topo, res)
	if s.Duration > 0 {
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			rep.Flows++
			rep.Unfinished++
		}
	}
	dardCounters(rep, ctl)
	if s.WindowSec > 0 {
		ws, err := steadyWindows(s.WindowSec, res)
		if err != nil {
			return nil, err
		}
		rep.Windows = ws
	}
	return rep, nil
}

// linkEvents resolves the scenario's named link failures to directed
// link events (both directions of each duplex link). Validate has
// checked their times.
func (s Scenario) linkEvents(topo *Topology) ([]topology.LinkEvent, error) {
	if len(s.LinkFailures) == 0 {
		return nil, nil
	}
	g := topo.net.Graph()
	var events []topology.LinkEvent
	for _, lf := range s.LinkFailures {
		from, ok := g.FindNode(lf.From)
		if !ok {
			return nil, fmt.Errorf("dard: link failure references unknown node %q", lf.From)
		}
		to, ok := g.FindNode(lf.To)
		if !ok {
			return nil, fmt.Errorf("dard: link failure references unknown node %q", lf.To)
		}
		l, ok := g.LinkBetween(from.ID, to.ID)
		if !ok {
			return nil, fmt.Errorf("dard: no link between %q and %q", lf.From, lf.To)
		}
		events = append(events,
			topology.LinkEvent{At: lf.AtSec, Link: l, Down: !lf.Repair},
			topology.LinkEvent{At: lf.AtSec, Link: g.Reverse(l), Down: !lf.Repair},
		)
	}
	return events, nil
}

// runPacket builds and runs the scenario on the packet engine; Validate
// has ruled out steady mode there, so the workload is bounded.
func (s Scenario) runPacket(ctx context.Context) (*Report, error) {
	topo, src, err := s.prepare()
	if err != nil {
		return nil, err
	}
	pol, err := s.policy()
	if err != nil {
		return nil, err
	}
	events, err := s.linkEvents(topo)
	if err != nil {
		return nil, err
	}
	rt, err := psim.NewRuntime(psim.Config{
		Topo:          topo.net,
		Policy:        pol,
		Arrivals:      src,
		Seed:          s.Seed,
		ElephantAge:   s.ElephantAgeSec,
		MaxTime:       s.MaxTimeSec,
		LinkEvents:    events,
		Tracer:        s.Tracer,
		ProbeInterval: s.probeInterval(),
	})
	if err != nil {
		return nil, err
	}
	res, err := rt.RunContext(ctx)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	rep := packetReport(s, topo, res)
	dardCounters(rep, pol)
	return rep, nil
}
