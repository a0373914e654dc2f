package experiments

import (
	"fmt"

	"dard"
	"dard/internal/metrics"
	"dard/internal/parallel"
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
	// One pool cell per (rate, pattern): the ECMP and DARD runs of a cell
	// stay together on one seed so the improvement is measured on a
	// paired workload. The cells keep the suite's base seed — each run's
	// RNGs derive from the scenario seed alone, so the sweep is already
	// worker-count independent without per-cell reseeding, and the curve
	// stays comparable with the paper's single-seed testbed measurement.
	type cell struct {
		rate float64
		pat  dard.Pattern
	}
	var cells []cell
	for _, rate := range rates {
		for _, pat := range patterns {
			cells = append(cells, cell{rate, pat})
		}
	}
	imps := make([]float64, len(cells))
	err = parallel.ForEach(p.Workers, len(cells), func(i int) error {
		c := cells[i]
		base := dard.Scenario{
			Topo:           topo,
			Pattern:        c.pat,
			RatePerHost:    c.rate,
			Duration:       20, // fixed window so each rate has enough flows
			FileSizeMB:     8,  // ~0.67 s at the 100 Mbps line rate
			Seed:           p.Seed,
			ElephantAgeSec: 0.5,
			VLBIntervalSec: 2,
			DARD:           quickDARDTuning(),
			// Rate is swept on one topology, so it needs its own subtree to
			// keep the per-cell trace file names unique.
			TraceDir: p.traceDir("figure4", fmt.Sprintf("rate-%.2f", c.rate)),
		}
		ecmpScn := base
		ecmpScn.Scheduler = dard.SchedulerECMP
		ecmp, err := ecmpScn.Run()
		if err != nil {
			return fmt.Errorf("rate=%.2f/%s/ECMP: %w", c.rate, c.pat, err)
		}
		dardScn := base
		dardScn.Scheduler = dard.SchedulerDARD
		dd, err := dardScn.Run()
		if err != nil {
			return fmt.Errorf("rate=%.2f/%s/DARD: %w", c.rate, c.pat, err)
		}
		imps[i] = dd.ImprovementOver(ecmp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("Improvement of avg transfer time, DARD vs ECMP (flow engine, p=4 fat-tree @100Mbps)",
		"rate(flows/s/host)", "random", "stag(.5,.3)", "stride")
	values := make(map[string]float64)
	for i := 0; i < len(cells); i += len(patterns) {
		row := []interface{}{fmt.Sprintf("%.2f", cells[i].rate)}
		for j := range patterns {
			c := cells[i+j]
			row = append(row, fmt.Sprintf("%5.1f%%", 100*imps[i+j]))
			values[fmt.Sprintf("rate=%.2f/%s/improvement", c.rate, c.pat)] = imps[i+j]
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

// Figure5 reproduces the testbed CDF of transfer times under stride
// traffic for DARD, ECMP, and pVLB on the packet-level engine (TCP New
// Reno over the p=4, 100 Mbps fabric).
func Figure5(p Params) (*Result, error) {
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
		VLBIntervalSec: 1,
		DARD:           quickDARDTuning(),
		TraceDir:       p.traceDir("figure5"),
	}
	scheds := []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerDARD}
	reports, err := runMatrix(p.Workers, topo, base, []dard.Pattern{dard.PatternStride}, scheds)
	if err != nil {
		return nil, err
	}
	series := make(map[string][]float64)
	values := make(map[string]float64)
	for _, sch := range scheds {
		rep := reports[key(dard.PatternStride, sch)]
		series[string(sch)] = rep.TransferTimes
		values[string(sch)+"/mean"] = rep.MeanTransferTime()
		values[string(sch)+"/p90"] = rep.TransferTimeQuantile(0.9)
	}
	return &Result{
		ID:     "Figure 5",
		Title:  "transfer time CDF, p=4 fat-tree, stride (packet engine)",
		Text:   cdfBlock("transfer time (s)", series),
		Values: values,
	}, nil
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
	base := dard.Scenario{
		RatePerHost:    p.RatePerHost,
		Duration:       p.Duration,
		FileSizeMB:     p.FileSizeMB / 4,
		Seed:           p.Seed,
		ElephantAgeSec: 0.5,
		DARD:           quickDARDTuning(),
		TraceDir:       p.traceDir("figure6"),
	}
	reports, err := runMatrix(p.Workers, topo, base, patterns, []dard.Scheduler{dard.SchedulerDARD})
	if err != nil {
		return nil, err
	}
	series := make(map[string][]float64)
	values := make(map[string]float64)
	for _, pat := range patterns {
		rep := reports[key(pat, dard.SchedulerDARD)]
		series[string(pat)] = rep.PathSwitches
		values[string(pat)+"/p90"] = rep.PathSwitchQuantile(0.9)
		values[string(pat)+"/max"] = rep.PathSwitchQuantile(1)
	}
	return &Result{
		ID:     "Figure 6",
		Title:  "path switch count CDF, p=4 fat-tree (DARD stability)",
		Text:   cdfBlock("path switches", series),
		Values: values,
	}, nil
}

// quickDARDTuning shortens DARD's control loop for short scaled-down
// runs: the same structure, proportionally faster.
func quickDARDTuning() dard.Tuning {
	return dard.Tuning{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1}
}
