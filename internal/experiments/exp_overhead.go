package experiments

import (
	"fmt"

	"dard"
	"dard/internal/metrics"
	"dard/internal/parallel"
)

// Figure15 reproduces the control-overhead comparison (§4.3.4): control
// traffic (MB/s) against the peak number of concurrent elephant flows on
// a p=8 fat-tree, for DARD's distributed probing and the centralized
// scheduler's reports/updates. DARD's overhead is bounded by the topology
// (all-pairs probing in the worst case); the centralized overhead scales
// with the number of flows.
func Figure15(p Params) (*Result, error) {
	p = p.withDefaults()
	topo, err := dard.TopologySpec{Kind: dard.FatTree, P: 8, HostsPerToR: p.HostsPerToR}.Build()
	if err != nil {
		return nil, err
	}
	rates := []float64{0.1, 0.25, 0.5, 1.0, 2.0}
	// The DARD and centralized runs of a rate share one derived seed so
	// both schedulers see the same workload.
	var cells []dard.Scenario
	for _, rate := range rates {
		for _, sch := range []dard.Scheduler{dard.SchedulerDARD, dard.SchedulerAnnealing} {
			cells = append(cells, dard.Scenario{
				Topo:           topo,
				Scheduler:      sch,
				Pattern:        dard.PatternRandom,
				RatePerHost:    rate,
				Duration:       p.Duration,
				FileSizeMB:     p.FileSizeMB,
				Seed:           parallel.Seed(p.Seed, fmt.Sprintf("%s/rate=%.2f/random", topo.Name(), rate)),
				ElephantAgeSec: 1,
				// Rate is swept on one topology, so each rate gets its own
				// subtree to keep trace file names unique.
				TraceDir: p.traceDir("figure15", fmt.Sprintf("rate-%.2f", rate)),
			})
		}
	}
	reports, err := dard.RunAll(cells, p.Workers)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("control traffic vs workload (p=8 fat-tree)",
		"rate", "peakElephants", "DARD MB/s", "Centralized MB/s")
	values := make(map[string]float64)
	for i, rate := range rates {
		dRep, sRep := reports[2*i], reports[2*i+1]
		peak := dRep.PeakElephants
		tbl.AddRowf(fmt.Sprintf("%.2f", rate), peak, dRep.ControlMBps(), sRep.ControlMBps())
		values[fmt.Sprintf("rate=%.2f/peakElephants", rate)] = float64(peak)
		values[fmt.Sprintf("rate=%.2f/DARD_MBps", rate)] = dRep.ControlMBps()
		values[fmt.Sprintf("rate=%.2f/Centralized_MBps", rate)] = sRep.ControlMBps()
	}
	return &Result{
		ID:     "Figure 15",
		Title:  "communication overhead: DARD vs centralized scheduling",
		Text:   tbl.String(),
		Values: values,
	}, nil
}
