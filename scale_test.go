package dard

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestPaperScaleFabric runs DARD on the paper's p=16 fat-tree switching
// fabric (with a trimmed host edge) — 128 ToRs, 64 equal-cost paths per
// inter-pod pair — and checks completion, stability, and a win over
// ECMP. Skipped with -short; cmd/dardsim reaches p=32 the same way.
func TestPaperScaleFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("large-fabric run skipped in -short mode")
	}
	topo, err := TopologySpec{Kind: FatTree, P: 16, HostsPerToR: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		Topo:           topo,
		Pattern:        PatternStride,
		RatePerHost:    1,
		Duration:       15,
		FileSizeMB:     64,
		Seed:           2,
		ElephantAgeSec: 0.5,
		DARD:           Tuning{QueryInterval: 0.5, ScheduleInterval: 2.5, ScheduleJitter: 2.5},
	}
	ecmpScn := base
	ecmpScn.Scheduler = SchedulerECMP
	ecmp, err := ecmpScn.Run()
	if err != nil {
		t.Fatal(err)
	}
	dd := base
	dd.Scheduler = SchedulerDARD
	rep, err := dd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unfinished != 0 {
		t.Fatalf("%d unfinished flows at p=16", rep.Unfinished)
	}
	if rep.Flows < 1000 {
		t.Fatalf("only %d flows generated", rep.Flows)
	}
	if imp := rep.ImprovementOver(ecmp); imp < 0 {
		t.Errorf("DARD improvement at p=16 = %.1f%%, want >= 0", 100*imp)
	}
	if p90 := rep.PathSwitchQuantile(0.9); p90 > 3 {
		t.Errorf("p90 path switches = %g at p=16, want <= 3", p90)
	}
	if max := rep.PathSwitchQuantile(1); max >= 64 {
		t.Errorf("max path switches = %g, must stay far below the 64 paths", max)
	}
}

// scaleScenario is the scale oracle's workload: a switching fabric
// under staggered traffic with the simulated-annealing controller, whose
// central rounds re-route many elephants from one timer — the event
// shape that dirties several disjoint sharing-graph components per
// recompute. It is the BENCH_pr6/BENCH_pr8 workload shortened to a
// 1.5 s window at 0.25 flows/s/host. The rate is per host, so the same
// scenario scales from the p=64 fabric to p=128.
func scaleScenario(topo *Topology) Scenario {
	return Scenario{
		Topo:           topo,
		Scheduler:      SchedulerAnnealing,
		Pattern:        PatternStaggered,
		RatePerHost:    0.25,
		Duration:       1.5,
		FileSizeMB:     64,
		Seed:           7,
		ElephantAgeSec: 0.5,
	}
}

// TestScaleOracle checks the flow engine on the two largest fabrics
// implicit path sets make reachable. At p=64 the incremental engine's
// report must be byte-identical to the retained reference scheduler's.
// The reference scheduler is O(events x flows), affordable at p=64 but
// not at p=128, where the run must still finish every flow. Skipped
// with -short.
func TestScaleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("p=64/p=128 fabrics skipped in -short mode")
	}
	run := func(t *testing.T, s Scenario) *Report {
		t.Helper()
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	reportJSON := func(t *testing.T, s Scenario) []byte {
		t.Helper()
		j, err := json.Marshal(run(t, s))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	t.Run("p=64", func(t *testing.T) {
		topo, err := TopologySpec{Kind: FatTree, P: 64, HostsPerToR: 1}.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := scaleScenario(topo)
		if !bytes.Equal(reportJSON(t, s), reportJSON(t, s.WithReferenceEngine())) {
			t.Fatal("reference scheduler diverges from the incremental engine at p=64")
		}
	})
	t.Run("p=128", func(t *testing.T) {
		topo, err := TopologySpec{Kind: FatTree, P: 128, HostsPerToR: 1}.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep := run(t, scaleScenario(topo))
		if rep.Flows == 0 || rep.Unfinished != 0 {
			t.Fatalf("%d of %d flows unfinished at p=128", rep.Unfinished, rep.Flows)
		}
	})
}
