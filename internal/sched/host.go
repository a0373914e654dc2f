package sched

import (
	"math/rand"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/topology"
	"dard/internal/trace"
)

// Host is the engine surface path policies run on. Both the flow-level
// engine (flowsim.Sim) and the packet-level runtime (psim.Runtime)
// implement it, so ECMP, pVLB, and DARD's control plane are written
// once and run unchanged on either substrate: the packet runtime calls
// them as psim.Policy values, the flow engine through the
// flowsim.Controller methods each forwards to the same code. A policy
// sees flows only by ID and reads or moves their paths through the
// host.
type Host interface {
	// StateSource is the switch-state view monitors query: the
	// topology (and its graph), per-link elephant counts and
	// capacities.
	ctlmsg.StateSource
	// Now returns the simulation time in seconds.
	Now() float64
	// AfterRef schedules fn d seconds from now. ref describes the timer
	// for flow-engine checkpoints (see flowsim.SnapshotController); an
	// engine without checkpoints ignores it.
	AfterRef(d float64, ref flowsim.TimerRef, fn func())
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

// FlowOf describes a flow-engine flow.
func FlowOf(f *flowsim.Flow) Flow {
	return Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, SrcToR: f.SrcToR, DstToR: f.DstToR}
}
