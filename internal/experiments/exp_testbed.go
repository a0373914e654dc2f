package experiments

import (
	"fmt"

	"dard"
	"dard/internal/metrics"
)

// testbedSpec is the DeterLab emulation fabric (§3.1): a p=4 fat-tree of
// 100 Mbps links.
func testbedSpec() dard.TopologySpec {
	return dard.TopologySpec{Kind: dard.FatTree, P: 4, LinkCapacity: 100e6}
}

// Figure4 reproduces the testbed improvement curve: the relative
// improvement of DARD over ECMP in average transfer time as the per-host
// flow generating rate grows, for the three traffic patterns. The paper's
// shape: flat near zero at low rates, a hump as cross-pod elephants
// collide on fabric links, then shrinking again once host access links
// saturate.
func Figure4(p Params) (*Result, error) {
	p = p.withDefaults()
	topo, err := testbedSpec().Build()
	if err != nil {
		return nil, err
	}
	rates := []float64{0.1, 0.2, 0.4, 0.8, 1.6}
	// The ECMP and DARD runs of a (rate, pattern) cell sit side by side on
	// one seed so the improvement is measured on a paired workload. The
	// cells keep the suite's base seed — each run's RNGs derive from the
	// scenario seed alone, so the sweep is already worker-count
	// independent without per-cell reseeding, and the curve stays
	// comparable with the paper's single-seed testbed measurement.
	var cells []dard.Scenario
	for _, rate := range rates {
		for _, pat := range patterns {
			for _, sch := range []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerDARD} {
				cells = append(cells, dard.Scenario{
					Topo:           topo,
					Scheduler:      sch,
					Pattern:        pat,
					RatePerHost:    rate,
					Duration:       20, // fixed window so each rate has enough flows
					FileSizeMB:     8,  // ~0.67 s at the 100 Mbps line rate
					Seed:           p.Seed,
					ElephantAgeSec: 0.5,
					VLBIntervalSec: 2,
					DARD:           quickDARDTuning(),
					// Rate is swept on one topology, so it needs its own
					// subtree to keep the per-cell trace file names unique.
					TraceDir: p.traceDir("figure4", fmt.Sprintf("rate-%.2f", rate)),
				})
			}
		}
	}
	reports, err := dard.RunAll(cells, p.Workers)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Improvement of avg transfer time, DARD vs ECMP (flow engine, p=4 fat-tree @100Mbps)",
		"rate(flows/s/host)", "random", "stag(.5,.3)", "stride")
	values := make(map[string]float64)
	for i := 0; i < len(cells); i += 2 * len(patterns) {
		rate := cells[i].RatePerHost
		row := []interface{}{fmt.Sprintf("%.2f", rate)}
		for j := i; j < i+2*len(patterns); j += 2 {
			imp := reports[j+1].ImprovementOver(reports[j])
			row = append(row, fmt.Sprintf("%5.1f%%", 100*imp))
			values[fmt.Sprintf("rate=%.2f/%s/improvement", rate, cells[j].Pattern)] = imp
		}
		tbl.AddRowf(row...)
	}
	return &Result{
		ID:     "Figure 4",
		Title:  "file transfer improvement vs flow generating rate (testbed)",
		Text:   tbl.String(),
		Values: values,
	}, nil
}

// TestbedStudy runs the packet-engine testbed comparison once — the
// p=4, 100 Mbps fat-tree under stride traffic, TCP New Reno — with
// ECMP, pVLB, DARD and TeXCP on one derived seed, so every comparison is
// paired, and renders the three artifacts drawn from it: Figure 5's
// transfer-time CDF of DARD, ECMP and pVLB (§4.2), and Figure 13's
// transfer-time and Figure 14's retransmission-rate CDFs of DARD against
// TeXCP (§4.3.3). Figures 5 and 13 share the DARD run.
func TestbedStudy(p Params) ([]*Result, error) {
	p = p.withDefaults()
	topo, err := testbedSpec().Build()
	if err != nil {
		return nil, err
	}
	base := dard.Scenario{
		RatePerHost:    p.PacketRate,
		Duration:       p.PacketDuration,
		FileSizeMB:     p.PacketFileMB,
		Seed:           p.Seed,
		Engine:         dard.EnginePacket,
		ElephantAgeSec: 0.5,
		VLBIntervalSec: 1, // read by pVLB alone
		DARD:           quickDARDTuning(),
		TraceDir:       p.traceDir("figure5"),
	}
	scheds := []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerDARD, dard.SchedulerTeXCP}
	reports, err := dard.RunAll(grid(base, []*dard.Topology{topo}, []dard.Pattern{dard.PatternStride}, scheds), p.Workers)
	if err != nil {
		return nil, err
	}
	ecmp, pvlb, dd, tx := reports[0], reports[1], reports[2], reports[3]

	fig5 := make(map[string]float64)
	for _, rep := range []*dard.Report{ecmp, pvlb, dd} {
		fig5[rep.Scheduler+"/mean"] = rep.MeanTransferTime()
		fig5[rep.Scheduler+"/p90"] = rep.TransferTimeQuantile(0.9)
	}
	return []*Result{{
		ID:    "Figure 5",
		Title: "transfer time CDF, p=4 fat-tree, stride (packet engine)",
		Text: cdfBlock("transfer time (s)", map[string][]float64{
			"ECMP": ecmp.TransferTimes, "pVLB": pvlb.TransferTimes, "DARD": dd.TransferTimes,
		}),
		Values: fig5,
	}, {
		// Both fill the bisection, DARD slightly ahead because its flows
		// keep segments in order.
		ID:    "Figure 13",
		Title: "DARD vs TeXCP transfer time CDF, p=4 fat-tree, stride (packet engine)",
		Text:  cdfBlock("transfer time (s)", map[string][]float64{"DARD": dd.TransferTimes, "TeXCP": tx.TransferTimes}),
		Values: map[string]float64{
			"DARD/mean":      dd.MeanTransferTime(),
			"TeXCP/mean":     tx.MeanTransferTime(),
			"DARD/coreUtil":  dd.CoreUtilization,
			"TeXCP/coreUtil": tx.CoreUtilization,
		},
	}, {
		// TeXCP's per-packet splitting reorders segments and retransmits
		// more than DARD.
		ID:    "Figure 14",
		Title: "DARD vs TeXCP TCP retransmission rate CDF (packet engine)",
		Text:  cdfBlock("retransmission rate", map[string][]float64{"DARD": dd.RetxRates, "TeXCP": tx.RetxRates}),
		Values: map[string]float64{
			"DARD/meanRetxRate":  dd.RetxRateMean(),
			"TeXCP/meanRetxRate": tx.RetxRateMean(),
		},
	}}, nil
}

// Figure6 reproduces the testbed path-switch CDF: under staggered traffic
// almost no flow moves; under stride most flows move at most a couple of
// times; the maximum stays below the path count.
func Figure6(p Params) (*Result, error) {
	p = p.withDefaults()
	topo, err := testbedSpec().Build()
	if err != nil {
		return nil, err
	}
	runs, err := runGrid(p, dard.Scenario{
		RatePerHost:    p.RatePerHost,
		Duration:       p.Duration,
		FileSizeMB:     p.FileSizeMB / 4,
		Seed:           p.Seed,
		ElephantAgeSec: 0.5,
		DARD:           quickDARDTuning(),
		TraceDir:       p.traceDir("figure6"),
	}, []*dard.Topology{topo}, []dard.Scheduler{dard.SchedulerDARD})
	if err != nil {
		return nil, err
	}
	return switchCDF("Figure 6", "path switch count CDF, p=4 fat-tree (DARD stability)", runs[0]), nil
}

// quickDARDTuning shortens DARD's control loop for short scaled-down
// runs: the same structure, proportionally faster.
func quickDARDTuning() dard.Tuning {
	return dard.Tuning{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1}
}
