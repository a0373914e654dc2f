package experiments

import (
	"fmt"

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

// Figure7 reproduces the transfer-time CDFs on the large fat-tree for the
// four schedulers under each traffic pattern.
func Figure7(p Params) (*Result, error) {
	p = p.withDefaults()
	return transferCDFs(p, "Figure 7", "transfer time CDFs on {topo}, four schedulers x three patterns",
		sizeSpec(p, dard.FatTree, p.BigP), fatTreeScenario(p))
}

// Figure8 reproduces DARD's path-switch CDF on the large fat-tree.
func Figure8(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchCDF(p, "Figure 8", "path switch count CDF on {topo}", sizeSpec(p, dard.FatTree, p.BigP), fatTreeScenario(p))
}

// Table4 reproduces the average-transfer-time table across fat-tree sizes,
// patterns, and schedulers.
func Table4(p Params) (*Result, error) {
	p = p.withDefaults()
	return sizeSweep(p, "Table 4", "average file transfer time (s) on fat-trees", dard.FatTree, p.FatTreeP)
}

// Table5 reproduces DARD's 90th-percentile and maximum path-switch counts
// on fat-trees.
func Table5(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchSweep(p, "Table 5", "DARD 90th-percentile and max path switch times on fat-trees", dard.FatTree, p.FatTreeP)
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

// sweep runs the fat-tree base scenario over the sizes x patterns x
// schedulers grid of a Table 4-7 sweep. The flat grid lets the small
// sizes' cells overlap the big ones' on the worker pool instead of
// sweeping size by size. Reports come back in grid order.
func sweep(p Params, id string, kind dard.TopologyKind, sizes []int, scheds []dard.Scheduler) ([]*dard.Report, error) {
	topos := make([]*dard.Topology, len(sizes))
	for i, size := range sizes {
		topo, err := sizeSpec(p, kind, size).Build()
		if err != nil {
			return nil, err
		}
		topos[i] = topo
	}
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir(expTag(id))
	return dard.RunAll(grid(base, topos, patterns, scheds), p.Workers)
}

// sizeSweep renders a Table-4-style matrix: topology size x pattern x
// scheduler mean transfer times.
func sizeSweep(p Params, id, title string, kind dard.TopologyKind, sizes []int) (*Result, error) {
	reports, err := sweep(p, id, kind, sizes, flowSchedulers)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "size", "pattern", "ECMP", "pVLB", "DARD", "SimulatedAnnealing")
	values := make(map[string]float64)
	next := reports // consumed in grid order
	for _, size := range sizes {
		label := sizeLabel(kind, size)
		for _, pat := range patterns {
			row := []interface{}{label, string(pat)}
			for _, sch := range flowSchedulers {
				mean := next[0].MeanTransferTime()
				next = next[1:]
				row = append(row, mean)
				values[fmt.Sprintf("%s/%s/%s", label, pat, sch)] = mean
			}
			tbl.AddRowf(row...)
		}
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}, nil
}

// switchSweep renders a Table-5-style matrix: DARD path-switch p90/max
// per topology size and pattern.
func switchSweep(p Params, id, title string, kind dard.TopologyKind, sizes []int) (*Result, error) {
	reports, err := sweep(p, id, kind, sizes, dardOnly)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "size", "pattern", "90th-pct", "max")
	values := make(map[string]float64)
	next := reports // consumed in grid order
	for _, size := range sizes {
		label := sizeLabel(kind, size)
		for _, pat := range patterns {
			p90 := next[0].PathSwitchQuantile(0.9)
			max := next[0].PathSwitchQuantile(1)
			next = next[1:]
			tbl.AddRowf(label, string(pat), p90, max)
			values[fmt.Sprintf("%s/%s/p90", label, pat)] = p90
			values[fmt.Sprintf("%s/%s/max", label, pat)] = max
		}
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}, nil
}
