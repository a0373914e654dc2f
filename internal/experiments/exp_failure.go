package experiments

import (
	"fmt"

	"dard"
	"dard/internal/metrics"
)

// FailureRecovery exercises the fault-injection extension on the testbed
// fabric: a core uplink (aggr1_1 -> core1) fails a quarter into the
// arrival window and repairs at three quarters, under stride traffic.
// It is not a paper artifact — the paper's testbed never breaks a link —
// but the scenario the paper motivates: DARD's monitors detect the dead
// path and evacuate its elephants, while ECMP strands them until the
// repair. Both engines run the same schedule; the table shows stranded
// flows, mean transfer time, and DARD's shifts per cell.
func FailureRecovery(p Params) (*Result, error) {
	p = p.withDefaults()
	topo, err := testbedSpec().Build()
	if err != nil {
		return nil, err
	}
	var cells []dard.Scenario
	for _, eng := range []dard.Engine{dard.EngineFlow, dard.EnginePacket} {
		// Flow cells use the Figure 4 testbed load (fixed like its
		// sweep): moderate enough that the blackout, not saturation,
		// dominates the comparison. Packet cells follow the suite's
		// packet-engine scale.
		duration, fileMB, rate := 20.0, 8.0, 0.4
		if eng == dard.EnginePacket {
			duration, fileMB, rate = p.PacketDuration, p.PacketFileMB, p.PacketRate
		}
		for _, sch := range []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerDARD} {
			cells = append(cells, dard.Scenario{
				Topo:           topo,
				Scheduler:      sch,
				Engine:         eng,
				Pattern:        dard.PatternStride,
				RatePerHost:    rate,
				Duration:       duration,
				FileSizeMB:     fileMB,
				Seed:           p.Seed,
				ElephantAgeSec: 0.5,
				DARD:           quickDARDTuning(),
				LinkFailures: []dard.LinkFailure{
					{AtSec: 0.25 * duration, From: "aggr1_1", To: "core1"},
					{AtSec: 0.75 * duration, From: "aggr1_1", To: "core1", Repair: true},
				},
				TraceDir: p.traceDir("failure", string(eng)),
			})
		}
	}
	reports, err := dard.RunAll(cells, p.Workers)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("blackout at 25%, repair at 75% of the arrival window (stride, p=4 fat-tree @100Mbps)",
		"engine/scheduler", "flows", "unfinished", "mean s", "shifts")
	values := make(map[string]float64)
	for i, rep := range reports {
		label := fmt.Sprintf("%s/%s", cells[i].Engine, rep.Scheduler)
		tbl.AddRowf(label, rep.Flows, rep.Unfinished, rep.MeanTransferTime(), rep.DARDShifts)
		values[label+"/unfinished"] = float64(rep.Unfinished)
		values[label+"/mean_s"] = rep.MeanTransferTime()
		values[label+"/shifts"] = float64(rep.DARDShifts)
	}
	return &Result{
		ID:     "failure",
		Title:  "failure recovery: link blackout and repair under ECMP vs DARD",
		Text:   tbl.String(),
		Values: values,
	}, nil
}
