package experiments

import (
	"fmt"
	"slices"

	"dard"
	"dard/internal/metrics"
)

// fatTreeScenario is the shared base for the ns-2-style sweeps (§4.3.1):
// 1 Gbps links, exponential arrivals, fixed-size elephants. When the
// transfer size is scaled below the paper's 128 MB, every control-plane
// timescale (elephant age, query/scheduling intervals, pVLB re-pick) is
// scaled by the same factor so the control loops see proportionally the
// same number of opportunities per flow; at FileSizeMB = 128 the values
// are exactly the paper's.
func fatTreeScenario(p Params) dard.Scenario {
	scale := p.FileSizeMB / 128
	if scale > 1 {
		scale = 1
	}
	if scale <= 0 {
		scale = 1
	}
	return dard.Scenario{
		RatePerHost:    p.RatePerHost,
		Duration:       p.Duration,
		FileSizeMB:     p.FileSizeMB,
		Seed:           p.Seed,
		ElephantAgeSec: 1 * scale,
		VLBIntervalSec: 5 * scale,
		DARD: dard.Tuning{
			QueryInterval:    1 * scale,
			ScheduleInterval: 5 * scale,
			ScheduleJitter:   5 * scale,
		},
	}
}

// FatTreeStudy runs the fat-tree grid of §4.3.1 once and renders the
// four artifacts drawn from it: Figure 7's transfer-time CDFs and
// Figure 8's path-switch CDF on the large fat-tree (BigP), and Table 4's
// mean transfer times and Table 5's DARD path-switch percentiles across
// the FatTreeP sizes.
func FatTreeStudy(p Params) ([]*Result, error) {
	p = p.withDefaults()
	big, bySize, err := sizeRuns(p, dard.FatTree, p.FatTreeP, p.BigP, "table4")
	if err != nil {
		return nil, err
	}
	return []*Result{
		transferCDFs("Figure 7", "transfer time CDFs on {topo}, four schedulers x three patterns", big),
		switchCDF("Figure 8", "path switch count CDF on {topo}", big),
		transferTable("Table 4", "average file transfer time (s) on fat-trees", dard.FatTree, p.FatTreeP, bySize),
		switchTable("Table 5", "DARD 90th-percentile and max path switch times on fat-trees", dard.FatTree, p.FatTreeP, bySize),
	}, nil
}

// sizeSpec is the fat-tree (size = P) or Clos (size = D) of one sweep
// size, with the suite's host trim.
func sizeSpec(p Params, kind dard.TopologyKind, size int) dard.TopologySpec {
	spec := dard.TopologySpec{Kind: kind, HostsPerToR: p.HostsPerToR}
	if kind == dard.Clos {
		spec.D = size
	} else {
		spec.P = size
	}
	return spec
}

// sizeLabel renders a sweep size the way the tables print it.
func sizeLabel(kind dard.TopologyKind, size int) string {
	if kind == dard.Clos {
		return fmt.Sprintf("D=%d", size)
	}
	return fmt.Sprintf("p=%d", size)
}

// sizeRuns runs the fat-tree base scenario over (sizes ∪ {big}) x
// patterns x the four flow schedulers as one grid, so every cell runs
// once and the small sizes' cells overlap the big ones' on the worker
// pool. It returns big's runs and one entry per size, in order; every
// trace lands under dir.
func sizeRuns(p Params, kind dard.TopologyKind, sizes []int, big int, dir string) (topoRuns, []topoRuns, error) {
	all := sizes
	if !slices.Contains(sizes, big) {
		all = append(slices.Clip(sizes), big)
	}
	topos := make([]*dard.Topology, len(all))
	for i, size := range all {
		topo, err := sizeSpec(p, kind, size).Build()
		if err != nil {
			return topoRuns{}, nil, err
		}
		topos[i] = topo
	}
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir(dir)
	runs, err := runGrid(p, base, topos, flowSchedulers)
	if err != nil {
		return topoRuns{}, nil, err
	}
	return runs[slices.Index(all, big)], runs[:len(sizes)], nil
}

// transferTable renders Tables 4 and 6: mean transfer time per topology
// size, pattern and scheduler. runs holds one entry per size, in order.
func transferTable(id, title string, kind dard.TopologyKind, sizes []int, runs []topoRuns) *Result {
	tbl := metrics.NewTable(title, "size", "pattern", "ECMP", "pVLB", "DARD", "SimulatedAnnealing")
	values := make(map[string]float64)
	for s, size := range sizes {
		label := sizeLabel(kind, size)
		for i, pat := range patterns {
			row := []interface{}{label, string(pat)}
			for _, sch := range flowSchedulers {
				mean := runs[s].reports[sch][i].MeanTransferTime()
				row = append(row, mean)
				values[fmt.Sprintf("%s/%s/%s", label, pat, sch)] = mean
			}
			tbl.AddRowf(row...)
		}
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}
}

// switchTable renders Tables 5 and 7: DARD's path-switch p90/max per
// topology size and pattern. runs holds one entry per size, in order.
func switchTable(id, title string, kind dard.TopologyKind, sizes []int, runs []topoRuns) *Result {
	tbl := metrics.NewTable(title, "size", "pattern", "90th-pct", "max")
	values := make(map[string]float64)
	for s, size := range sizes {
		label := sizeLabel(kind, size)
		for i, pat := range patterns {
			rep := runs[s].reports[dard.SchedulerDARD][i]
			p90, max := rep.PathSwitchQuantile(0.9), rep.PathSwitchQuantile(1)
			tbl.AddRowf(label, string(pat), p90, max)
			values[fmt.Sprintf("%s/%s/p90", label, pat)] = p90
			values[fmt.Sprintf("%s/%s/max", label, pat)] = max
		}
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}
}
