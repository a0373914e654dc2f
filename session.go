package dard

import (
	"context"
	"encoding/json"
	"fmt"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/trace"
	"dard/internal/workload"
)

// SessionSnapshotVersion is the format version of Session.Snapshot's
// wire container. The embedded engine blob carries its own version
// (flowsim.SnapVersion) and CRC. Version 2 carries engine blobs whose
// arrivals restore by replay (flowsim.SnapVersion 2).
const SessionSnapshotVersion = 2

// Session is a resumable flow-engine run: a Scenario plus the live
// simulation behind it. Unlike Run, which executes to completion, a
// session can pause at a clean event boundary, serialize itself to a
// snapshot, and later continue — in the same process or after
// ResumeSession rebuilds it from the bytes — with the final Report
// byte-identical to an uninterrupted run. Sessions exist for the flow
// engine only; the packet kernel has no pause/snapshot protocol.
//
// A Session is not safe for concurrent use except where documented:
// RequestPause may be called from any goroutine while Run is executing.
type Session struct {
	scenario Scenario
	topo     *Topology
	sim      *flowsim.Sim
	ctl      sched.Policy
	flows    []workload.Flow // batch workload; nil in steady mode
}

// sessionWire is the JSON container a session snapshot travels in: the
// scenario (so ResumeSession can rebuild the topology, workload, and
// controller from scratch) plus the engine's binary snapshot, which
// carries only positions — clock, RNG draws, flow progress, timers.
//
//dardsnap:fields encoder=Session.Snapshot decoder=ResumeSession
type sessionWire struct {
	Version  int      `json:"version"`
	Scenario Scenario `json:"scenario"`
	// Reference preserves the test-only reference-scheduler flag, which
	// is unexported on Scenario and would otherwise be lost in transit.
	Reference bool   `json:"reference,omitempty"`
	Engine    []byte `json:"engine"`
}

// NewSession validates the scenario and prepares a run without starting
// it. The scenario must use the flow engine; a scenario carrying a
// pre-built Topo must also carry the TopologySpec that rebuilds it, or
// snapshots of the session will not resume onto the same network.
func NewSession(s Scenario) (*Session, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Engine != EngineFlow {
		return nil, fmt.Errorf("dard: sessions run on Engine: EngineFlow (the packet kernel cannot pause or snapshot)")
	}
	return buildSession(s, nil)
}

// ResumeSession rebuilds a session from a Snapshot blob. tracer, when
// non-nil, receives the resumed run's events (the snapshot never carries
// a tracer); tracing cannot perturb the simulation, so traced and
// untraced resumes produce byte-identical reports.
func ResumeSession(data []byte, tracer trace.Tracer) (*Session, error) {
	var w sessionWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("dard: session snapshot: %w", err)
	}
	if w.Version != SessionSnapshotVersion {
		return nil, fmt.Errorf("dard: session snapshot version %d, this build reads %d", w.Version, SessionSnapshotVersion)
	}
	if len(w.Engine) == 0 {
		return nil, fmt.Errorf("dard: session snapshot carries no engine state")
	}
	s := w.Scenario
	s.flowsimReference = w.Reference
	s.Tracer = tracer
	s.TraceDir = ""
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return buildSession(s, w.Engine)
}

// buildSession constructs the topology, workload, and engine; a non-nil
// engine snapshot restores the run's position instead of starting fresh.
func buildSession(s Scenario, engineSnap []byte) (*Session, error) {
	topo, flows, arrivals, err := s.prepare()
	if err != nil {
		return nil, err
	}
	cfg, ctl, err := s.flowConfig(topo, flows, arrivals)
	if err != nil {
		return nil, err
	}
	var sim *flowsim.Sim
	if engineSnap == nil {
		sim, err = flowsim.New(cfg)
	} else {
		sim, err = flowsim.Restore(cfg, engineSnap)
	}
	if err != nil {
		return nil, err
	}
	return &Session{scenario: s, topo: topo, sim: sim, ctl: ctl, flows: flows}, nil
}

// Run executes the session until completion, pause, or cancellation.
// On completion it returns the final Report; afterwards Run must not be
// called again. On a pause (RequestPause or PauseAfter) it returns
// ErrPaused with all state intact — Snapshot the session, call Run again
// to continue, or both. On cancellation the error matches ErrCanceled
// and the context's error; like a pause, state stays intact, so a
// canceled session may still Snapshot or resume.
func (sess *Session) Run(ctx context.Context) (*Report, error) {
	res, err := sess.sim.RunContext(ctx)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	return sess.scenario.finishFlowReport(sess.topo, res, sess.ctl, len(sess.flows))
}

// Snapshot serializes the paused (or finished, or not yet started)
// session. The bytes are deterministic — the same logical state always
// encodes identically — and self-contained: ResumeSession rebuilds the
// run from them alone. Valid between Run calls, never during one.
func (sess *Session) Snapshot() ([]byte, error) {
	blob, err := sess.sim.Snapshot()
	if err != nil {
		return nil, err
	}
	sc := sess.scenario
	// Strip the process-local fields: the tracer is re-attached by
	// ResumeSession, the topology is rebuilt from its spec, and a
	// resumed run must not re-write trace files over the original's.
	sc.Topo = nil
	sc.Tracer = nil
	sc.TraceDir = ""
	return json.Marshal(sessionWire{
		Version:   SessionSnapshotVersion,
		Scenario:  sc,
		Reference: sess.scenario.flowsimReference,
		Engine:    blob,
	})
}

// RequestPause asks a running session to stop at its next event boundary
// with ErrPaused. Safe to call from any goroutine; between Run calls the
// request is remembered and the next Run pauses immediately.
func (sess *Session) RequestPause() { sess.sim.RequestPause() }

// PauseAfter arranges a pause once n more events have been dispatched —
// the deterministic checkpoint trigger: the same n on the same scenario
// always pauses at the same event boundary.
func (sess *Session) PauseAfter(n int64) { sess.sim.PauseAfter(n) }

// Events returns the number of simulation events dispatched so far.
func (sess *Session) Events() int64 { return sess.sim.Events() }

// Now returns the session's simulated time.
func (sess *Session) Now() float64 { return sess.sim.Now() }

// Scenario returns the session's resolved scenario (defaults applied).
func (sess *Session) Scenario() Scenario { return sess.scenario }
