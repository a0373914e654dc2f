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
	topo, err := dard.TopologySpec{Kind: dard.FatTree, P: p.BigP, HostsPerToR: p.HostsPerToR}.Build()
	if err != nil {
		return nil, err
	}
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir("figure7")
	reports, err := runMatrix(p.Workers, topo, base, patterns, flowSchedulers)
	if err != nil {
		return nil, err
	}
	var text string
	values := make(map[string]float64)
	for _, pat := range patterns {
		series := make(map[string][]float64)
		for _, sch := range flowSchedulers {
			rep := reports[key(pat, sch)]
			series[string(sch)] = rep.TransferTimes
			values[key(pat, sch)+"/mean"] = rep.MeanTransferTime()
		}
		text += cdfBlock(fmt.Sprintf("(%s) transfer time (s), %s", pat, topo.Name()), series) + "\n"
	}
	return &Result{
		ID:     "Figure 7",
		Title:  fmt.Sprintf("transfer time CDFs on %s, four schedulers x three patterns", topo.Name()),
		Text:   text,
		Values: values,
	}, nil
}

// Figure8 reproduces DARD's path-switch CDF on the large fat-tree.
func Figure8(p Params) (*Result, error) {
	p = p.withDefaults()
	topo, err := dard.TopologySpec{Kind: dard.FatTree, P: p.BigP, HostsPerToR: p.HostsPerToR}.Build()
	if err != nil {
		return nil, err
	}
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir("figure8")
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
		ID:     "Figure 8",
		Title:  fmt.Sprintf("path switch count CDF on %s", topo.Name()),
		Text:   cdfBlock("path switches", series),
		Values: values,
	}, nil
}

// Table4 reproduces the average-transfer-time table across fat-tree sizes,
// patterns, and schedulers.
func Table4(p Params) (*Result, error) {
	p = p.withDefaults()
	return sizeSweep(p, "Table 4", "average file transfer time (s) on fat-trees",
		p.FatTreeP, func(size int) (*dard.Topology, error) {
			return dard.TopologySpec{Kind: dard.FatTree, P: size, HostsPerToR: p.HostsPerToR}.Build()
		}, func(size int) string { return fmt.Sprintf("p=%d", size) })
}

// Table5 reproduces DARD's 90th-percentile and maximum path-switch counts
// on fat-trees.
func Table5(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchSweep(p, "Table 5", "DARD 90th-percentile and max path switch times on fat-trees",
		p.FatTreeP, func(size int) (*dard.Topology, error) {
			return dard.TopologySpec{Kind: dard.FatTree, P: size, HostsPerToR: p.HostsPerToR}.Build()
		}, func(size int) string { return fmt.Sprintf("p=%d", size) })
}

// sizeSweep renders a Table-4-style matrix: topology size x pattern x
// scheduler mean transfer times. Topology construction and every cell
// run on the worker pool; the flat cell list lets the small sizes' cells
// overlap the big ones' instead of sweeping size by size.
func sizeSweep(p Params, id, title string, sizes []int,
	build func(int) (*dard.Topology, error), label func(int) string) (*Result, error) {
	topos, err := buildAll(p.Workers, sizes, build)
	if err != nil {
		return nil, err
	}
	cells := sweepCells(len(sizes), patterns, flowSchedulers)
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir(expTag(id))
	reports, err := runSweep(p.Workers, base, topos, cells,
		func(si int) string { return label(sizes[si]) })
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "size", "pattern", "ECMP", "pVLB", "DARD", "SimulatedAnnealing")
	values := make(map[string]float64)
	for i := 0; i < len(cells); i += len(flowSchedulers) {
		c := cells[i]
		row := []interface{}{label(sizes[c.Size]), string(c.Pat)}
		for j, sch := range flowSchedulers {
			mean := reports[i+j].MeanTransferTime()
			row = append(row, mean)
			values[fmt.Sprintf("%s/%s/%s", label(sizes[c.Size]), c.Pat, sch)] = mean
		}
		tbl.AddRowf(row...)
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}, nil
}

// switchSweep renders a Table-5-style matrix: DARD path-switch p90/max
// per topology size and pattern, with the (size, pattern) cells fanned
// across the worker pool.
func switchSweep(p Params, id, title string, sizes []int,
	build func(int) (*dard.Topology, error), label func(int) string) (*Result, error) {
	topos, err := buildAll(p.Workers, sizes, build)
	if err != nil {
		return nil, err
	}
	cells := sweepCells(len(sizes), patterns, []dard.Scheduler{dard.SchedulerDARD})
	base := fatTreeScenario(p)
	base.TraceDir = p.traceDir(expTag(id))
	reports, err := runSweep(p.Workers, base, topos, cells,
		func(si int) string { return label(sizes[si]) })
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable(title, "size", "pattern", "90th-pct", "max")
	values := make(map[string]float64)
	for i, c := range cells {
		p90 := reports[i].PathSwitchQuantile(0.9)
		max := reports[i].PathSwitchQuantile(1)
		tbl.AddRowf(label(sizes[c.Size]), string(c.Pat), p90, max)
		values[fmt.Sprintf("%s/%s/p90", label(sizes[c.Size]), c.Pat)] = p90
		values[fmt.Sprintf("%s/%s/max", label(sizes[c.Size]), c.Pat)] = max
	}
	return &Result{ID: id, Title: title, Text: tbl.String(), Values: values}, nil
}
