package dard_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dard"
)

// equivalenceCases builds the scenario set both equivalence gates run:
// every scheduler x pattern cell at p=4, DARD with an active control
// loop, the failure scenarios, and (outside -short) the p=16 switching
// fabric with mid-run failures.
func equivalenceCases(short bool) map[string]dard.Scenario {
	base := dard.Scenario{
		Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4},
		RatePerHost:    0.5,
		Duration:       10,
		FileSizeMB:     64,
		Seed:           7,
		ElephantAgeSec: 0.2,
	}
	active := func(s dard.Scenario) dard.Scenario {
		// Keep elephants alive long enough for DARD's control loop to
		// move flows: equivalence must hold while paths are switching.
		s.FileSizeMB = 256
		s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}
		return s
	}
	failing := func(s dard.Scenario) dard.Scenario {
		s.MaxTimeSec = 60
		s.LinkFailures = []dard.LinkFailure{
			{AtSec: 1, From: "aggr1_1", To: "core1"},
			{AtSec: 4, From: "aggr1_1", To: "core1", Repair: true},
		}
		return s
	}
	cases := map[string]dard.Scenario{}
	for _, sch := range []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerAnnealing} {
		for _, pat := range []dard.Pattern{dard.PatternStride, dard.PatternRandom, dard.PatternStaggered} {
			s := base
			s.Scheduler = sch
			s.Pattern = pat
			cases[string(sch)+"/"+string(pat)] = s
		}
	}
	{
		s := active(base)
		s.Scheduler = dard.SchedulerDARD
		s.Pattern = dard.PatternStride
		cases["DARD/stride-active"] = s
	}
	{
		s := failing(active(base))
		s.Scheduler = dard.SchedulerDARD
		s.Pattern = dard.PatternStride
		cases["DARD/stride-failures"] = s
	}
	{
		s := failing(base)
		s.Scheduler = dard.SchedulerECMP
		s.Pattern = dard.PatternStride
		cases["ECMP/stride-failures"] = s
	}
	{
		// The non-tree families with an active DARD loop: equivalence,
		// worker-count invariance, and checkpoint resume must hold on the
		// source-routed path providers too, not just the tree index tables.
		s := active(base)
		s.Topology = dard.TopologySpec{Kind: dard.Dragonfly, D: 2, A: 2, HostsPerToR: 2}
		s.Scheduler = dard.SchedulerDARD
		s.Pattern = dard.PatternStride
		cases["DARD/dragonfly"] = s
	}
	{
		s := active(base)
		s.Topology = dard.TopologySpec{Kind: dard.DCell, N: 3, Level: 1}
		s.Scheduler = dard.SchedulerDARD
		s.Pattern = dard.PatternStride
		cases["DARD/dcell"] = s
	}
	if !short {
		// The paper-scale switching fabric with mid-run failures.
		s := dard.Scenario{
			Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 16, HostsPerToR: 1},
			Scheduler:      dard.SchedulerDARD,
			Pattern:        dard.PatternStride,
			RatePerHost:    1,
			Duration:       10,
			FileSizeMB:     64,
			Seed:           2,
			ElephantAgeSec: 0.5,
			MaxTimeSec:     120,
			DARD:           dard.Tuning{QueryInterval: 0.5, ScheduleInterval: 2.5, ScheduleJitter: 2.5},
			LinkFailures: []dard.LinkFailure{
				{AtSec: 2, From: "aggr1_1", To: "core1"},
				{AtSec: 6, From: "aggr1_1", To: "core1", Repair: true},
			},
		}
		cases["DARD/p16-fabric-failures"] = s
	}
	return cases
}

// TestReportEquivalence runs public-API scenarios on both the
// incremental flowsim engine and its retained reference scheduler and
// requires the serialized reports to match byte for byte. This is the
// acceptance gate for the incremental max-min engine: any divergence —
// a finish time off by one ULP, one extra path switch, one control
// byte — fails the diff. CI runs this on every push.
func TestReportEquivalence(t *testing.T) {
	for name, scenario := range equivalenceCases(testing.Short()) {
		scenario := scenario
		t.Run(name, func(t *testing.T) {
			fast, err := scenario.Run()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := scenario.WithReferenceEngine().Run()
			if err != nil {
				t.Fatal(err)
			}
			fastJSON, err := json.Marshal(fast)
			if err != nil {
				t.Fatal(err)
			}
			refJSON, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fastJSON, refJSON) {
				t.Errorf("incremental engine diverges from reference:\n  incremental: %s\n  reference:   %s",
					firstDiff(fastJSON, refJSON), firstDiff(refJSON, fastJSON))
			}
		})
	}
}

// firstDiff returns a window of a around the first byte where a and b
// differ, to keep failure output readable on large reports.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-40, i+40
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
