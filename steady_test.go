package dard_test

import (
	"bytes"
	"fmt"
	"testing"

	"dard"
)

// TestBoundedSteadyMatchesBatch is the one-generator gate: a bounded
// Steady run streams the very flows the batch generator materializes,
// so its report is byte-identical to the batch run's with the same
// WindowSec, for every flow scheduler on fat-tree p=4 and p=8, every
// pattern and seeds 1-3.
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
						want, err := batch.Run()
						if err != nil {
							t.Fatal(err)
						}
						got, err := steady.Run()
						if err != nil {
							t.Fatal(err)
						}
						if want.Flows == 0 {
							t.Fatal("batch run generated no flows")
						}
						wj, gj := reportJSON(t, want), reportJSON(t, got)
						if !bytes.Equal(gj, wj) {
							t.Errorf("bounded steady run diverges from batch:\n  steady: %s\n  batch:  %s",
								firstDiff(gj, wj), firstDiff(wj, gj))
						}
					})
				}
			}
		}
	}
}
