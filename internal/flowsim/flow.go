// Package flowsim is a flow-level fluid simulator for datacenter
// topologies. Active flows share link bandwidth max-min fairly (computed
// by progressive filling), the allocation the paper's Appendix A assumes
// TCP with fair queuing approximates. Time advances event by event: flow
// arrivals, flow completions, and control-plane timers.
//
// The simulator implements sched.Host, the surface DARD's control plane
// and the baselines run on: policies assign and re-assign per-flow
// paths, register timers, observe flow lifecycle events, query per-link
// elephant-flow state (the paper's switch state interface), and account
// control-message bytes. The switch state and the accounting are
// sched.Core, which the packet engine embeds too.
package flowsim

import (
	"math"

	"dard/internal/sched"
	"dard/internal/topology"
)

// Flow is the runtime state of one transfer.
//
// The engine stores flow state in two layers: the fields below are the
// cold, mostly-write-once identity of the flow (all Flow structs live in
// one slab allocated at Sim construction), while the hot per-event
// quantities — remaining bits, current rate, projected completion, the
// recompute scratch — live in struct-of-arrays slices on the Sim indexed
// by flow ID (see engine.go), so the recompute and completion paths walk
// contiguous memory instead of chasing per-flow pointers. Rate reads
// through to those arrays.
type Flow struct {
	// Flow is the identity policies see: the workload flow ID and the
	// endpoint hosts and their attachment ToRs. IDs are dense: the
	// engine uses them to index its struct-of-arrays state.
	sched.Flow
	// SizeBits is the total transfer size.
	SizeBits float64
	// PathIdx indexes the equal-cost path set between SrcToR and DstToR.
	PathIdx int
	// Arrival and Finish are simulation timestamps; Finish is NaN while
	// the flow is active.
	Arrival, Finish float64
	// PathSwitches counts how many times the flow changed paths after
	// its initial assignment (the paper's stability metric).
	PathSwitches int
	// Elephant reports whether the flow has been classified as an
	// elephant (a TCP connection older than the detection threshold).
	Elephant bool

	sim    *Sim              // owner, for the struct-of-arrays accessors
	links  []topology.LinkID // current route incl. host first/last hop
	pos    []int32           // pos[i] = index of this flow in linkFlows[links[i]]
	active bool
}

// Rate returns the flow's current max-min allocation in bits/s.
func (f *Flow) Rate() float64 { return f.sim.rate[f.ID] }

// TransferTime returns Finish-Arrival, or NaN if unfinished.
func (f *Flow) TransferTime() float64 {
	if math.IsNaN(f.Finish) {
		return math.NaN()
	}
	return f.Finish - f.Arrival
}

// Links returns the flow's current route including the host's first and
// last hop. The slice is owned by the simulator; callers must not modify
// it.
func (f *Flow) Links() []topology.LinkID { return f.links }

// Starter is an optional sched.Policy extension for flow-engine-only
// policies: Start is called once before the first event, so a policy
// can install timers that read engine state no sched.Host exposes
// (Hedera's centralized rounds walk the global active-flow table).
type Starter interface {
	Start(s *Sim)
}
