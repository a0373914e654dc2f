package flowsim

import "dard/internal/workload"

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
//
// A source is a pure function of how it was built: a checkpoint records
// only how many flows the run consumed, and Restore, handed a source
// built the same way, replays that many through Next and requires each
// to match the flow the snapshot recorded.
type ArrivalSource interface {
	// Peek returns the next flow without consuming it; ok=false when
	// the source is exhausted.
	Peek() (wf workload.Flow, ok bool)
	// Next consumes and returns the next flow.
	Next() (wf workload.Flow, ok bool)
}

// sliceSource adapts the classic Config.Flows list.
type sliceSource struct {
	flows []workload.Flow
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
