package flowsim

import (
	"fmt"
	"math"

	"dard/internal/snap"
	"dard/internal/workload"
)

// ArrivalSource streams the workload into the engine one flow at a
// time, which is what lets a run be open-ended: a finite flow list is
// just a source that eventually reports ok=false, while a generator
// (workload.OpenPoisson) can keep producing arrivals forever.
//
// The engine calls Peek at every event boundary to learn the next
// arrival time, so sources must keep their next flow materialized —
// Peek must be cheap and must not advance the stream. Flows must come
// out with dense sequential IDs (0, 1, 2, ...) in non-decreasing
// arrival order; the engine validates each one as it is consumed.
type ArrivalSource interface {
	// Peek returns the next flow without consuming it; ok=false when
	// the source is exhausted.
	Peek() (wf workload.Flow, ok bool)
	// Next consumes and returns the next flow.
	Next() (wf workload.Flow, ok bool)
}

// SnapshotArrivalSource is an ArrivalSource whose position can be
// checkpointed. Sim.Snapshot requires it of any external source.
type SnapshotArrivalSource interface {
	ArrivalSource
	// SnapshotState encodes the source's position.
	SnapshotState(enc *snap.Encoder)
	// RestoreState repositions a freshly constructed source. The source
	// must have been built with the same parameters as the snapshotted
	// one; only the position is restored.
	RestoreState(dec *snap.Decoder) error
}

// sliceSource adapts the classic Config.Flows list. Its checkpoint
// state is just the consumption index.
//
//dardsnap:fields encoder=sliceSource.SnapshotState decoder=sliceSource.RestoreState
type sliceSource struct {
	flows []workload.Flow //dardlint:snapfield the list is Config.Flows — configuration, not state; only the cursor moves
	pos   int
}

func (src *sliceSource) Peek() (workload.Flow, bool) {
	if src.pos >= len(src.flows) {
		return workload.Flow{}, false
	}
	return src.flows[src.pos], true
}

func (src *sliceSource) Next() (workload.Flow, bool) {
	wf, ok := src.Peek()
	if ok {
		src.pos++
	}
	return wf, ok
}

func (src *sliceSource) SnapshotState(enc *snap.Encoder) {
	enc.U32(uint32(src.pos))
}

func (src *sliceSource) RestoreState(dec *snap.Decoder) error {
	pos := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if pos < 0 || pos > len(src.flows) {
		return fmt.Errorf("flowsim: snapshot arrival position %d outside [0,%d]", pos, len(src.flows))
	}
	src.pos = pos
	return nil
}

// checkFlow is the predicate every flow passes, batch or streamed, as
// arrival number n at clock now: its ID is n, so IDs are dense and
// sequential; its endpoints are distinct hosts; its size is positive
// and finite; and it arrives at a finite time no earlier than now.
func checkFlow(wf workload.Flow, n, hosts int, now float64) error {
	if wf.ID != n {
		return fmt.Errorf("flowsim: flow ID %d arrives as number %d, want dense sequential IDs", wf.ID, n)
	}
	if wf.Src < 0 || wf.Src >= hosts || wf.Dst < 0 || wf.Dst >= hosts {
		return fmt.Errorf("flowsim: flow %d references host out of range", wf.ID)
	}
	if wf.Src == wf.Dst {
		return fmt.Errorf("flowsim: flow %d is a self-flow", wf.ID)
	}
	if !(wf.SizeBits > 0) || math.IsInf(wf.SizeBits, 0) {
		return fmt.Errorf("flowsim: flow %d has invalid size %g", wf.ID, wf.SizeBits)
	}
	if math.IsNaN(wf.Arrival) || math.IsInf(wf.Arrival, 0) || wf.Arrival < now {
		return fmt.Errorf("flowsim: flow %d arrives at invalid time %g (now %g)", wf.ID, wf.Arrival, now)
	}
	return nil
}
