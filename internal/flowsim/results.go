package flowsim

import (
	"math"
	"slices"

	"dard/internal/metrics"
)

// FlowStat is the per-flow outcome of a run.
type FlowStat struct {
	ID           int
	Arrival      float64
	Finish       float64 // NaN if unfinished at MaxTime
	TransferTime float64 // NaN if unfinished
	SizeBits     float64
	PathSwitches int
	// FinalPathIdx is the path the flow was on when it finished.
	FinalPathIdx int
	Elephant     bool
	InterPod     bool
}

// Completed reports whether the flow finished.
func (fs FlowStat) Completed() bool { return !math.IsNaN(fs.Finish) }

// Results aggregates a run.
type Results struct {
	// Controller is the strategy name.
	Controller string
	// Flows holds one entry per arrived flow, in ID order; flows MaxTime
	// kept from arriving have none.
	Flows []FlowStat
	// Unfinished counts arrived flows cut off by MaxTime (0 on a clean
	// run).
	Unfinished int
	// SimTime is the timestamp of the last processed event.
	SimTime float64
	// ControlBytes is the total control-plane traffic recorded.
	ControlBytes float64
	// PeakElephants is the maximum number of concurrently active
	// elephant flows (the x-axis of Figure 15).
	PeakElephants int
}

func (s *Sim) collectResults() *Results {
	r := &Results{
		Controller:    s.cfg.Controller.Name(),
		SimTime:       s.now,
		ControlBytes:  s.ControlBytes(),
		PeakElephants: s.PeakElephants(),
	}
	r.Flows = slices.Grow(r.Flows, s.arrived) // stays nil for a run with no flows
	g := s.Topo().Graph()
	for _, f := range s.flows {
		st := FlowStat{
			ID:           f.ID,
			Arrival:      f.Arrival,
			Finish:       f.Finish,
			TransferTime: f.TransferTime(),
			SizeBits:     f.SizeBits,
			PathSwitches: f.PathSwitches,
			FinalPathIdx: f.PathIdx,
			Elephant:     f.Elephant,
			InterPod:     g.Node(f.Src).Pod != g.Node(f.Dst).Pod,
		}
		if !st.Completed() {
			r.Unfinished++
		}
		r.Flows = append(r.Flows, st)
	}
	return r
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

// PathSwitchCounts returns the path-switch sample of completed flows (the
// paper's stability metric, Figures 6/8/10/12 and Tables 5/7).
func (r *Results) PathSwitchCounts() *metrics.Sample {
	var s metrics.Sample
	for _, f := range r.Flows {
		if f.Completed() {
			s.Add(float64(f.PathSwitches))
		}
	}
	return &s
}
