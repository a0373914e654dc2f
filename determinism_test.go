package dard

import (
	"reflect"
	"testing"
)

// TestDARDDeterministic: two identical DARD runs produce identical
// results — scheduling rounds iterate monitors in stable order, the
// hash-based initial assignment ignores shared RNG state, and all control
// timers are seeded.
func TestDARDDeterministic(t *testing.T) {
	runOnce := func() *Report {
		rep, err := Scenario{
			Topology:       TopologySpec{Kind: FatTree, P: 4},
			Scheduler:      SchedulerDARD,
			Pattern:        PatternRandom,
			RatePerHost:    1.5,
			Duration:       10,
			FileSizeMB:     48,
			Seed:           17,
			ElephantAgeSec: 0.25,
			DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(), runOnce()
	if a.DARDShifts != b.DARDShifts {
		t.Errorf("shifts differ: %d vs %d", a.DARDShifts, b.DARDShifts)
	}
	if len(a.TransferTimes) != len(b.TransferTimes) {
		t.Fatal("different completion counts")
	}
	for i := range a.TransferTimes {
		if a.TransferTimes[i] != b.TransferTimes[i] {
			t.Fatalf("transfer time %d differs: %g vs %g", i, a.TransferTimes[i], b.TransferTimes[i])
		}
	}
	for i := range a.PathSwitches {
		if a.PathSwitches[i] != b.PathSwitches[i] {
			t.Fatalf("path switch %d differs", i)
		}
	}
	if a.ControlBytes != b.ControlBytes {
		t.Errorf("control bytes differ: %g vs %g", a.ControlBytes, b.ControlBytes)
	}
}

// assertReportsEqual requires the metric payloads of two reports to be
// identical, field for field.
func assertReportsEqual(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: missing report (%v, %v)", label, a, b)
	}
	if !reflect.DeepEqual(a.TransferTimes, b.TransferTimes) {
		t.Errorf("%s: transfer times differ", label)
	}
	if !reflect.DeepEqual(a.PathSwitches, b.PathSwitches) {
		t.Errorf("%s: path switches differ", label)
	}
	if a.DARDShifts != b.DARDShifts || a.ControlBytes != b.ControlBytes || a.Flows != b.Flows {
		t.Errorf("%s: shifts/control/flows differ: %d/%g/%d vs %d/%g/%d", label,
			a.DARDShifts, a.ControlBytes, a.Flows, b.DARDShifts, b.ControlBytes, b.Flows)
	}
}

// TestRunAllSerialParallelIdentical: RunAll over one shared topology
// produces, for every worker count, exactly the reports Scenario.Run
// would have produced one at a time.
func TestRunAllSerialParallelIdentical(t *testing.T) {
	topo, err := TopologySpec{Kind: FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	var scenarios []Scenario
	for _, sch := range []Scheduler{SchedulerECMP, SchedulerPVLB, SchedulerDARD} {
		for _, pat := range []Pattern{PatternRandom, PatternStride} {
			scenarios = append(scenarios, Scenario{
				Topo:           topo,
				Scheduler:      sch,
				Pattern:        pat,
				RatePerHost:    1.5,
				Duration:       8,
				FileSizeMB:     32,
				Seed:           11,
				ElephantAgeSec: 0.25,
				DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
			})
		}
	}
	serial, err := RunAll(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunAll(scenarios, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			label := string(scenarios[i].Pattern) + "/" + string(scenarios[i].Scheduler)
			assertReportsEqual(t, label, serial[i], par[i])
		}
	}
}
