package dard_test

import (
	"bytes"
	"fmt"
	"testing"

	"dard"
)

// TestBoundedSteadyMatchesBatch is the one-input gate: a run pulls its
// flows from the workload stream as it goes, and its report is
// byte-identical to that of the same run fed the stream drained up
// front into a flow list (RunOnList), with Steady set or not, for every
// flow scheduler on fat-tree p=4 and p=8, every pattern and seeds 1-3.
func TestBoundedSteadyMatchesBatch(t *testing.T) {
	schedulers := []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerDARD, dard.SchedulerAnnealing}
	patterns := []dard.Pattern{dard.PatternRandom, dard.PatternStaggered, dard.PatternStride}
	for _, p := range []int{4, 8} {
		for _, sch := range schedulers {
			for _, pat := range patterns {
				for seed := int64(1); seed <= 3; seed++ {
					batch := dard.Scenario{
						Topology:       dard.TopologySpec{Kind: dard.FatTree, P: p},
						Scheduler:      sch,
						Pattern:        pat,
						RatePerHost:    0.5,
						Duration:       3,
						FileSizeMB:     64,
						Seed:           seed,
						ElephantAgeSec: 0.2,
						WindowSec:      0.5,
					}
					if sch == dard.SchedulerDARD {
						batch.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}
					}
					steady := batch
					steady.Steady = true
					name := fmt.Sprintf("p=%d/%s/%s/seed=%d", p, sch, pat, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						want, err := batch.RunOnList()
						if err != nil {
							t.Fatal(err)
						}
						if want.Flows == 0 {
							t.Fatal("the workload has no flows")
						}
						wj := reportJSON(t, want)
						for mode, sc := range map[string]dard.Scenario{"plain": batch, "steady": steady} {
							got, err := sc.Run()
							if err != nil {
								t.Fatal(err)
							}
							if gj := reportJSON(t, got); !bytes.Equal(gj, wj) {
								t.Errorf("%s run diverges from the listed workload:\n  streamed: %s\n  listed:   %s",
									mode, firstDiff(gj, wj), firstDiff(wj, gj))
							}
						}
					})
				}
			}
		}
	}
}

// TestCutRunCountsItsWindow: a run that MaxTimeSec ends before its
// arrival window closes reports every flow of the window, as the uncut
// run does, with Unfinished = Flows - completed, on both engines and in
// both modes. The flow engine used to report only the flows that had
// arrived (steady mode) or count the rest nowhere (plain mode).
func TestCutRunCountsItsWindow(t *testing.T) {
	cut := dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4, LinkCapacity: 100e6},
		Scheduler:   dard.SchedulerECMP,
		Pattern:     dard.PatternStride,
		RatePerHost: 1,
		Duration:    10,
		FileSizeMB:  1,
		Seed:        3,
		MaxTimeSec:  3,
	}
	whole := cut
	whole.MaxTimeSec = 0
	full, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	if full.Unfinished != 0 || full.Flows != len(full.TransferTimes) {
		t.Fatalf("uncut run: %d flows, %d completed, %d unfinished", full.Flows, len(full.TransferTimes), full.Unfinished)
	}
	steady, packet := cut, cut
	steady.Steady = true
	packet.Engine = dard.EnginePacket
	for name, sc := range map[string]dard.Scenario{"flow": cut, "flow steady": steady, "packet": packet} {
		rep, err := sc.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done := len(rep.TransferTimes)
		if rep.Flows != full.Flows || rep.Unfinished != rep.Flows-done || rep.Unfinished == 0 {
			t.Errorf("%s: %d flows, %d completed, %d unfinished; the window holds %d flows",
				name, rep.Flows, done, rep.Unfinished, full.Flows)
		}
	}
}
