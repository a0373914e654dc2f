package sched

import (
	"math/rand"

	"dard/internal/ctlmsg"
	"dard/internal/topology"
	"dard/internal/trace"
)

// Policy selects paths for flows. It is the one contract both engines
// drive: the flow-level engine (flowsim.Sim) and the packet-level
// runtime (psim.Runtime) call InitialPath on every arrival, and notify
// a policy that also implements Observer of each flow's lifecycle.
// ECMP, pVLB and DARD's control plane are written once against it.
type Policy interface {
	// Name identifies the policy in results and tables.
	Name() string
	// InitialPath picks the starting path index for a new flow from the
	// equal-cost set h.PathSet(f.SrcToR, f.DstToR).
	InitialPath(h Host, f Flow) int
}

// Observer is an optional Policy extension notified of flow lifecycle
// events. Each engine keeps its own callback order; a policy must not
// assume Arrived precedes Elephant when the detection threshold is
// (near) zero.
type Observer interface {
	// Arrived runs after the flow's initial path assignment.
	Arrived(h Host, f Flow)
	// Elephant runs when the flow crosses the elephant detection
	// threshold.
	Elephant(h Host, f Flow)
	// Departed runs when the flow completes.
	Departed(h Host, f Flow)
}

// Host is the engine surface policies run on, implemented by
// flowsim.Sim and psim.Runtime, which embed Core for the half that does
// not depend on the engine. A policy sees flows only by ID and reads or
// moves their paths through the host.
type Host interface {
	// StateSource is the switch-state view monitors query: the
	// topology (and its graph), per-link elephant counts and
	// capacities.
	ctlmsg.StateSource
	// Now returns the simulation time in seconds.
	Now() float64
	// AfterRef schedules fn d seconds from now. ref describes the timer
	// for flow-engine checkpoints; an engine without checkpoints
	// ignores it.
	AfterRef(d float64, ref TimerRef, fn func())
	// Rand returns the run's seeded random source.
	Rand() *rand.Rand
	// Seed returns the run's configured seed.
	Seed() int64
	// PathSet returns the equal-cost path set between two attachment
	// switches.
	PathSet(srcToR, dstToR topology.NodeID) topology.PathSet
	// RecordControl accounts control-plane bytes.
	RecordControl(bytes float64)
	// Tracer returns the run's tracer (never nil).
	Tracer() trace.Tracer
	// FlowByID returns the flow with the given ID; ok is false before
	// its arrival.
	FlowByID(id int) (f Flow, ok bool)
	// FlowPath returns the flow's current path index.
	FlowPath(id int) int
	// FlowActive reports whether the flow is still transferring.
	FlowActive(id int) bool
	// SetFlowPath moves the flow to another path of its set;
	// re-selecting the current path is a no-op.
	SetFlowPath(id, pathIdx int) error
}

// Flow is what a policy knows of a flow: its workload ID and endpoints.
type Flow struct {
	ID             int
	Src, Dst       topology.NodeID
	SrcToR, DstToR topology.NodeID
}

// TimerRef describes how to rebuild a timer callback after a
// flow-engine restore. Closures cannot be serialized, so every
// checkpointable timer carries a small descriptor: a tag naming the
// callback kind plus two integer operands. Tags below TagControllerBase
// belong to the engine (link events, elephant classification); tags at
// or above it are resolved by the run's policy (see
// flowsim.SnapshotController). The zero value marks a timer with no
// descriptor, which blocks a snapshot while pending.
type TimerRef struct {
	Tag  uint8
	A, B int64
}

// TagControllerBase is the first policy-owned timer tag.
const TagControllerBase uint8 = 16
