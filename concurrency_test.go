package dard

import (
	"sync"
	"testing"
)

// The concurrent runner's safety premise: a pre-built *Topology (graph,
// addressing plan, workload layout, path sets) is safe to share across
// scenarios running on different goroutines. Run these with -race.

// TestSharedTopologyConcurrentScenarios runs every scheduler under every
// pattern on one shared topology from separate goroutines, twice, and
// checks the pairs agree — racing runs would trip -race or diverge.
func TestSharedTopologyConcurrentScenarios(t *testing.T) {
	topo, err := TopologySpec{Kind: FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []Scenario
	for _, sch := range []Scheduler{SchedulerECMP, SchedulerPVLB, SchedulerDARD, SchedulerAnnealing} {
		for _, pat := range []Pattern{PatternRandom, PatternStaggered, PatternStride} {
			scenarios = append(scenarios, Scenario{
				Topo:           topo,
				Scheduler:      sch,
				Pattern:        pat,
				RatePerHost:    1.5,
				Duration:       6,
				FileSizeMB:     32,
				Seed:           7,
				ElephantAgeSec: 0.25,
				DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
			})
		}
	}
	runs := [2][]*Report{}
	for round := range runs {
		reports := make([]*Report, len(scenarios))
		var wg sync.WaitGroup
		for i := range scenarios {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := scenarios[i].Run()
				if err != nil {
					t.Error(err)
					return
				}
				reports[i] = rep
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		runs[round] = reports
	}
	for i := range scenarios {
		label := string(scenarios[i].Pattern) + "/" + string(scenarios[i].Scheduler)
		assertReportsEqual(t, label, runs[0][i], runs[1][i])
	}
}

// TestSharedTopologyConcurrentDARDControlLoops hammers one topology with
// many concurrent DARD control loops (the paper's selfish schedulers all
// querying the same fabric), exercising the implicit path sets and the
// layout under contention.
func TestSharedTopologyConcurrentDARDControlLoops(t *testing.T) {
	topo, err := TopologySpec{Kind: Clos, D: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Scenario{
				Topo:           topo,
				Scheduler:      SchedulerDARD,
				Pattern:        PatternRandom,
				RatePerHost:    1.5,
				Duration:       4,
				FileSizeMB:     16,
				Seed:           int64(100 + w),
				ElephantAgeSec: 0.25,
				DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
			}.Run()
			if err != nil {
				t.Error(err)
				return
			}
			if rep.Flows == 0 {
				t.Error("no flows simulated")
			}
		}()
	}
	wg.Wait()
}

// TestLazyAddressPlanConcurrentWithRuns overlaps the facade calls that
// build the lazy addressing plan (sync.Once on first use) with a
// running scenario: materializing the plan mid-flight must never race
// with the data path, and every caller must see the same plan.
func TestLazyAddressPlanConcurrentWithRuns(t *testing.T) {
	topo, err := TopologySpec{Kind: FatTree, P: 8}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	rules := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			defer wg.Done()
			if _, err := topo.HostAddresses("E1"); err != nil {
				t.Error(err)
			}
			rules[i] = topo.TotalFlowRules()
		}()
	}
	go func() {
		defer wg.Done()
		if _, err := (Scenario{
			Topo:        topo,
			Scheduler:   SchedulerECMP,
			Pattern:     PatternStride,
			RatePerHost: 1,
			Duration:    4,
			FileSizeMB:  16,
			Seed:        3,
		}).Run(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if rules[0] == 0 || rules[0] != rules[1] {
		t.Fatalf("concurrent TotalFlowRules disagree or are empty: %v", rules)
	}
}

// TestTracedScenariosConcurrently overlaps scenarios that each own an
// event tracer: traced sims running inside concurrent goroutines is the
// deepest nesting the runner produces. Each traced concurrent run must
// match its serial untraced twin exactly.
func TestTracedScenariosConcurrently(t *testing.T) {
	topo, err := TopologySpec{Kind: FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []Scenario
	for _, sch := range []Scheduler{SchedulerAnnealing, SchedulerDARD} {
		for _, pat := range []Pattern{PatternRandom, PatternStride} {
			scenarios = append(scenarios, Scenario{
				Topo:           topo,
				Scheduler:      sch,
				Pattern:        pat,
				RatePerHost:    1.5,
				Duration:       6,
				FileSizeMB:     32,
				Seed:           11,
				ElephantAgeSec: 0.25,
				DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
			})
		}
	}
	serial := make([]*Report, len(scenarios))
	for i := range scenarios {
		rep, err := scenarios[i].Run()
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rep
	}
	traced := make([]*Report, len(scenarios))
	var wg sync.WaitGroup
	for i := range scenarios {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := scenarios[i]
			s.TraceDir = t.TempDir()
			rep, err := s.Run()
			if err != nil {
				t.Error(err)
				return
			}
			traced[i] = rep
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range scenarios {
		label := string(scenarios[i].Pattern) + "/" + string(scenarios[i].Scheduler)
		assertReportsEqual(t, label, serial[i], traced[i])
	}
}
