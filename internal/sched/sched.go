// Package sched implements the random scheduling baselines the paper
// compares DARD against (§4): ECMP, which hashes a flow's 4-tuple onto
// one of the equal-cost paths permanently, and periodic VLB (pVLB),
// which re-picks a random path every few seconds to break permanent
// collisions. It also defines the policy contract both engines drive:
// Policy and Observer, the Host surface they are written against, and
// the TimerRef checkpoint descriptor. Each policy has one implementation
// that the flow-level and the packet-level engine both run, and this
// package imports neither engine.
package sched

import (
	"fmt"

	"dard/internal/snap"
)

// ECMP is Equal-Cost-Multi-Path forwarding (RFC 2992): a packet's path is
// a hash of selected header fields, so a flow sticks to one randomly
// chosen path for its whole life. Elephant flows that collide on a link
// stay collided — the failure mode motivating DARD.
type ECMP struct{}

var _ Policy = ECMP{}

// Name implements Policy.
func (ECMP) Name() string { return "ECMP" }

// InitialPath implements Policy. It hashes the flow's header fields
// modulo the path count, the paper's testbed hashing function (§4.2).
// The per-connection ephemeral ports are derived from the seed and flow
// ID rather than drawn from the shared RNG, so initial assignments are
// identical across schedulers.
func (ECMP) InitialPath(h Host, f Flow) int {
	return PathHash(h.Seed(), 0xec3f, f.ID, int32(f.Src), int32(f.Dst),
		h.PathSet(f.SrcToR, f.DstToR).Len())
}

// DefaultVLBInterval is pVLB's re-pick period in seconds.
const DefaultVLBInterval = 5.0

// PVLB is the paper's periodical Valiant Load Balancing variant (§4.2): a
// flow picks a random core switch (in a Clos network, a random
// aggregation pair) and re-picks every Interval seconds, so collisions
// are random but never permanent.
type PVLB struct {
	// Interval is the re-pick period in seconds; zero means
	// DefaultVLBInterval.
	Interval float64
}

var (
	_ Policy   = (*PVLB)(nil)
	_ Observer = (*PVLB)(nil)
)

// timerTagRepick marks a pVLB re-pick timer in a checkpoint; operand A is
// the flow ID.
const timerTagRepick = TagControllerBase

// Name implements Policy.
func (*PVLB) Name() string { return "pVLB" }

// InitialPath implements Policy with the flow's hash path, like ECMP;
// randomness enters through the periodic re-picks.
func (*PVLB) InitialPath(h Host, f Flow) int { return ECMP{}.InitialPath(h, f) }

// Arrived implements Observer: it installs the per-flow re-pick timer
// chain.
func (v *PVLB) Arrived(h Host, f Flow) {
	if h.PathSet(f.SrcToR, f.DstToR).Len() <= 1 {
		return
	}
	h.AfterRef(v.interval(), repickRef(f.ID), v.repickFn(h, f))
}

// Elephant implements Observer; pVLB treats every flow alike.
func (*PVLB) Elephant(Host, Flow) {}

// Departed implements Observer; the timer chain notices the departure
// on its next firing.
func (*PVLB) Departed(Host, Flow) {}

func (v *PVLB) interval() float64 {
	if v.Interval <= 0 {
		return DefaultVLBInterval
	}
	return v.Interval
}

func repickRef(id int) TimerRef {
	return TimerRef{Tag: timerTagRepick, A: int64(id)}
}

// repickFn builds one firing of a flow's re-pick chain. The closure is
// rebuilt from its TimerRef on restore, so it must derive everything from
// the flow and the host.
func (v *PVLB) repickFn(h Host, f Flow) func() {
	var repick func()
	repick = func() {
		if !h.FlowActive(f.ID) {
			return
		}
		n := h.PathSet(f.SrcToR, f.DstToR).Len()
		// SetFlowPath ignores a re-pick of the current path, matching a
		// VLB source that happens to draw the same core again.
		if err := h.SetFlowPath(f.ID, h.Rand().Intn(n)); err == nil {
			h.AfterRef(v.interval(), repickRef(f.ID), repick)
		}
	}
	return repick
}

// SnapshotState implements flowsim.SnapshotController. pVLB keeps no
// state beyond its pending re-pick timers, which the engine snapshots.
func (*PVLB) SnapshotState(Host, *snap.Encoder) error { return nil }

// RestoreState implements flowsim.SnapshotController.
func (*PVLB) RestoreState(Host, *snap.Decoder) error { return nil }

// RebuildTimer implements flowsim.SnapshotController: a re-pick timer
// rebinds to its flow by ID. A departed flow keeps its timer until the
// next firing (exactly like the live chain), so the rebuilt closure's
// FlowActive guard reproduces the original no-op.
func (v *PVLB) RebuildTimer(h Host, ref TimerRef) (func(), error) {
	if ref.Tag != timerTagRepick {
		return nil, fmt.Errorf("sched: unknown pVLB timer tag %d", ref.Tag)
	}
	f, ok := h.FlowByID(int(ref.A))
	if !ok {
		return nil, fmt.Errorf("sched: re-pick timer references unknown flow %d", ref.A)
	}
	return v.repickFn(h, f), nil
}

// Static always assigns the first path; a degenerate baseline useful in
// tests and as the worst case for collision behaviour.
type Static struct{}

var _ Policy = Static{}

// Name implements Policy.
func (Static) Name() string { return "static" }

// InitialPath implements Policy.
func (Static) InitialPath(Host, Flow) int { return 0 }
