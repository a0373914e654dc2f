package dard

import (
	"fmt"
	"math"
)

// minIntervalSec is the shortest positive period Validate accepts for a
// timer that re-arms itself: DARD's query and scheduling rounds, pVLB's
// re-pick and the trace probes. At 1e-300 s such a timer no longer
// advances the simulated clock, so the run never ends; 1 ms is far below
// any period the experiments use (0.1 s and up).
const minIntervalSec = 1e-3

// Validate checks the scenario without building a topology or running
// anything, so a serving layer can reject a bad submission before
// committing a worker to it. Every failure is a *ValidationError naming
// the offending field, with the same message Run would eventually
// produce for the same mistake. A nil return means the scenario's shape
// is sound; name resolution that needs the built topology (link-failure
// endpoints) still happens inside Run.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	invalid := func(field string, format string, args ...any) error {
		return &ValidationError{Field: field, Err: fmt.Errorf(format, args...)}
	}

	switch s.Engine {
	case EngineFlow, EnginePacket:
	default:
		return invalid("Engine", "dard: unknown engine %q", s.Engine)
	}
	if _, err := s.policy(); err != nil {
		return &ValidationError{Field: "Scheduler", Err: err}
	}
	switch s.Pattern {
	case PatternRandom, PatternStaggered, PatternStride:
	default:
		return invalid("Pattern", "dard: unknown pattern %q", s.Pattern)
	}
	if s.Topo == nil {
		switch s.Topology.Kind {
		case FatTree, "", Clos, ThreeTier, Dragonfly, DCell:
		default:
			return invalid("Topology", "dard: unknown topology kind %q", s.Topology.Kind)
		}
	}

	if !(s.RatePerHost > 0) || math.IsInf(s.RatePerHost, 0) {
		return invalid("RatePerHost", "dard: rate per host %g must be positive and finite", s.RatePerHost)
	}
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) {
		return invalid("Duration", "dard: duration %g must be finite", s.Duration)
	}
	if !(s.FileSizeMB > 0) || math.IsInf(s.FileSizeMB, 0) {
		return invalid("FileSizeMB", "dard: file size %g MB must be positive and finite", s.FileSizeMB)
	}
	if math.IsNaN(s.MaxTimeSec) || math.IsInf(s.MaxTimeSec, 0) || s.MaxTimeSec < 0 {
		return invalid("MaxTimeSec", "dard: max time %g must be a non-negative finite duration", s.MaxTimeSec)
	}
	if math.IsNaN(s.WindowSec) || math.IsInf(s.WindowSec, 0) {
		return invalid("WindowSec", "dard: metrics window %g must be finite", s.WindowSec)
	}

	if s.Steady {
		if s.Engine != EngineFlow {
			return invalid("Steady", "dard: steady mode requires Engine: EngineFlow (open arrivals stream through the fluid engine)")
		}
		if s.Duration <= 0 && !(s.MaxTimeSec > 0) {
			return invalid("MaxTimeSec", "dard: an unbounded steady run (Duration <= 0) needs MaxTimeSec to end")
		}
	} else if s.Duration <= 0 {
		// Only a steady run may stream arrivals without end.
		return invalid("Duration", "workload: rate %g and duration %g must be positive", s.RatePerHost, s.Duration)
	}

	for _, iv := range []struct {
		field string
		sec   float64
	}{
		{"DARD.QueryInterval", s.DARD.QueryInterval},
		{"DARD.ScheduleInterval", s.DARD.ScheduleInterval},
		{"VLBIntervalSec", s.VLBIntervalSec},
		{"TraceProbeInterval", s.TraceProbeInterval},
	} {
		if math.IsNaN(iv.sec) || math.IsInf(iv.sec, 0) {
			return invalid(iv.field, "dard: %s %g s must be finite", iv.field, iv.sec)
		}
		if iv.sec > 0 && iv.sec < minIntervalSec {
			return invalid(iv.field, "dard: %s %g s is below the %g s floor", iv.field, iv.sec, minIntervalSec)
		}
	}
	if j := s.DARD.ScheduleJitter; math.IsNaN(j) || math.IsInf(j, 0) {
		return invalid("DARD.ScheduleJitter", "dard: DARD.ScheduleJitter %g s must be finite", j)
	}
	if err := s.DARD.faults(s.Seed).Validate(); err != nil {
		return &ValidationError{Field: "DARD", Err: err}
	}
	for _, lf := range s.LinkFailures {
		if math.IsNaN(lf.AtSec) || math.IsInf(lf.AtSec, 0) || lf.AtSec < 0 {
			return invalid("LinkFailures", "dard: link failure at invalid time %g", lf.AtSec)
		}
	}
	return nil
}
