package dard

import (
	"fmt"
	"sort"
	"strings"

	"dard/internal/flowsim"
	"dard/internal/metrics"
	"dard/internal/psim"
)

// Report is the outcome of one Scenario run, carrying the metrics the
// paper evaluates (§4): transfer times, path-switch counts, control-plane
// overhead, and (on the packet engine) retransmission rates.
type Report struct {
	// Scheduler, Engine, Topology, and Pattern echo the scenario.
	Scheduler string
	Engine    Engine
	Topology  string
	Pattern   Pattern

	// Flows is the number of flows the workload generated (arrived
	// flows only, for an unbounded steady run); Unfinished counts those
	// that did not complete, Flows minus len(TransferTimes), which is 0
	// unless MaxTimeSec cut the run.
	Flows      int
	Unfinished int

	// TransferTimes are the completed flows' transfer times in seconds,
	// sorted ascending.
	TransferTimes []float64
	// PathSwitches are the completed flows' path-switch counts, sorted.
	PathSwitches []float64
	// RetxRates are per-flow retransmission rates (packet engine only),
	// sorted.
	RetxRates []float64

	// ControlBytes is the total control-plane traffic; SimTime the
	// simulated duration; PeakElephants the maximum concurrent elephant
	// count (flow engine only).
	ControlBytes  float64
	SimTime       float64
	PeakElephants int

	// CoreUtilization is the packet engine's average bisection-link
	// utilization over the run (§4.3.3); zero on the flow engine.
	CoreUtilization float64

	// DARDShifts and DARDRounds report the DARD controller's accepted
	// flow moves and executed scheduling rounds (zero for other
	// schedulers).
	DARDShifts int
	DARDRounds int

	// Windows holds the steady-state windowed metrics when the scenario
	// configured a window width (WindowSec, or steady mode's default):
	// per tumbling window, the completed volume, throughput, and Jain
	// fairness of the members' achieved rates. Empty otherwise, so
	// reports without windows serialize exactly as before the field
	// existed.
	Windows []metrics.WindowStat `json:",omitempty"`
}

// steadyWindows folds a flow-run's completed transfers into tumbling
// windows. Completions are ordered by (finish time, flow ID) — the order
// the engine dispatched them and the order a live trace stream observes
// them — so the serving layer's /metrics endpoint and this final report
// agree byte for byte on every window both have seen.
func steadyWindows(width float64, res *flowsim.Results) ([]metrics.WindowStat, error) {
	done := make([]flowsim.FlowStat, 0, len(res.Flows))
	for _, f := range res.Flows {
		if f.Completed() {
			done = append(done, f)
		}
	}
	// Flows is ID-ordered; a stable sort on finish time yields (Finish,
	// ID) — ties keep ID order — matching completion-dispatch order.
	sort.SliceStable(done, func(i, j int) bool { return done[i].Finish < done[j].Finish })
	samples := make([]metrics.WindowSample, len(done))
	for i, f := range done {
		samples[i] = metrics.WindowSample{
			Finish: f.Finish,
			Bits:   f.SizeBits,
			Rate:   f.SizeBits / f.TransferTime,
		}
	}
	return metrics.ComputeWindows(width, samples)
}

func flowReport(s Scenario, topo *Topology, res *flowsim.Results) *Report {
	return &Report{
		Scheduler:     res.Controller,
		Engine:        EngineFlow,
		Topology:      topo.Name(),
		Pattern:       s.Pattern,
		Flows:         len(res.Flows),
		Unfinished:    res.Unfinished,
		TransferTimes: res.TransferTimes().Values(),
		PathSwitches:  res.PathSwitchCounts().Values(),
		ControlBytes:  res.ControlBytes,
		SimTime:       res.SimTime,
		PeakElephants: res.PeakElephants,
	}
}

func packetReport(s Scenario, topo *Topology, res *psim.Results) *Report {
	// psim drained the workload, and its Unfinished counts every flow of
	// it that did not complete.
	tt := res.TransferTimes().Values()
	return &Report{
		Scheduler:       res.Policy,
		Engine:          EnginePacket,
		Topology:        topo.Name(),
		Pattern:         s.Pattern,
		Flows:           len(tt) + res.Unfinished,
		Unfinished:      res.Unfinished,
		TransferTimes:   tt,
		PathSwitches:    res.PathSwitchCounts().Values(),
		RetxRates:       res.RetxRates().Values(),
		ControlBytes:    res.ControlBytes,
		SimTime:         res.SimTime,
		CoreUtilization: res.CoreUtilization,
	}
}

func sample(values []float64) *metrics.Sample {
	var s metrics.Sample
	s.AddAll(values)
	return &s
}

// MeanTransferTime returns the average transfer time of completed flows
// (the paper's Tables 4 and 6), NaN when no flow completed.
func (r *Report) MeanTransferTime() float64 { return sample(r.TransferTimes).Mean() }

// TransferTimeQuantile returns the q-quantile of transfer times.
func (r *Report) TransferTimeQuantile(q float64) float64 {
	return sample(r.TransferTimes).Quantile(q)
}

// PathSwitchQuantile returns the q-quantile of per-flow path switches
// (the paper's Tables 5 and 7 report q=0.9 and q=1).
func (r *Report) PathSwitchQuantile(q float64) float64 {
	return sample(r.PathSwitches).Quantile(q)
}

// RetxRateMean returns the average per-flow retransmission rate (packet
// engine; Figure 14), NaN otherwise.
func (r *Report) RetxRateMean() float64 { return sample(r.RetxRates).Mean() }

// ControlMBps returns the average control-plane traffic in MB/s (Figure
// 15's y-axis).
func (r *Report) ControlMBps() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return r.ControlBytes / 1e6 / r.SimTime
}

// ImprovementOver computes Equation 1: the relative improvement of this
// report's mean transfer time over a baseline's.
func (r *Report) ImprovementOver(base *Report) float64 {
	return metrics.Improvement(base.MeanTransferTime(), r.MeanTransferTime())
}

// String renders a one-paragraph summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s [%s, %s engine]: %d flows (%d unfinished)\n",
		r.Scheduler, r.Topology, r.Pattern, r.Engine, r.Flows, r.Unfinished)
	fmt.Fprintf(&b, "  transfer time: mean %.3fs p50 %.3fs p90 %.3fs max %.3fs\n",
		r.MeanTransferTime(), r.TransferTimeQuantile(0.5), r.TransferTimeQuantile(0.9), r.TransferTimeQuantile(1))
	fmt.Fprintf(&b, "  path switches: p90 %.0f max %.0f\n",
		r.PathSwitchQuantile(0.9), r.PathSwitchQuantile(1))
	if len(r.RetxRates) > 0 {
		fmt.Fprintf(&b, "  retransmission rate: mean %.2f%%\n", 100*r.RetxRateMean())
	}
	if r.CoreUtilization > 0 {
		fmt.Fprintf(&b, "  core (bisection) utilization: %.1f%%\n", 100*r.CoreUtilization)
	}
	if r.ControlBytes > 0 {
		fmt.Fprintf(&b, "  control traffic: %.3f MB/s over %.1fs\n", r.ControlMBps(), r.SimTime)
	}
	return b.String()
}
