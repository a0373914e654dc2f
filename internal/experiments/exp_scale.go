package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dard"
	"dard/internal/metrics"
	"dard/internal/parallel"
)

// EngineScale measures the flow-level engine's wall-clock cost on the
// paper's fat-tree switching fabrics (p in Params.FatTreeP, one host per
// ToR): stride traffic under ECMP, the workload BenchmarkMaxMinScale
// times. It is not a paper artifact — it tracks the incremental max-min
// engine's scaling (see DESIGN.md, "Flow-level engine performance") so
// regressions show up as numbers, not as stalled p=32 sweeps.
func EngineScale(p Params) (*Result, error) {
	p = p.withDefaults()
	type cell struct {
		flows   int
		simTime float64
		wall    time.Duration
		heapMB  float64
		sysMB   float64
	}
	cells := make([]cell, len(p.FatTreeP))
	// Cells run serially on purpose: each measures wall clock, and
	// concurrent cells would contend for cores and skew one another.
	for i, pp := range p.FatTreeP {
		topo, err := dard.TopologySpec{Kind: dard.FatTree, P: pp, HostsPerToR: 1}.Build()
		if err != nil {
			return nil, err
		}
		s := dard.Scenario{
			Topo:        topo,
			Scheduler:   dard.SchedulerECMP,
			Pattern:     dard.PatternStride,
			RatePerHost: 2,
			Duration:    10,
			FileSizeMB:  64,
			Seed:        parallel.Seed(p.Seed, fmt.Sprintf("scale/p=%d", pp)),
		}
		start := time.Now()
		rep, err := s.Run()
		if err != nil {
			return nil, fmt.Errorf("p=%d: %w", pp, err)
		}
		if rep.Unfinished != 0 {
			return nil, fmt.Errorf("p=%d: %d unfinished flows", pp, rep.Unfinished)
		}
		wall := time.Since(start)
		// Peak RSS proxy: live heap and total OS-claimed memory right
		// after the run, before the topology is released. Sys only grows
		// within a process, so later (larger) cells subsume earlier ones;
		// running p ascending keeps each cell's reading meaningful.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		cells[i] = cell{
			flows: rep.Flows, simTime: rep.SimTime, wall: wall,
			heapMB: float64(ms.HeapAlloc) / (1 << 20),
			sysMB:  float64(ms.Sys) / (1 << 20),
		}
	}
	tbl := metrics.NewTable("flow-level engine wall clock (stride, ECMP, 1 host/ToR)",
		"p", "flows", "sim s", "wall s", "heap MB", "sys MB")
	values := make(map[string]float64)
	for i, pp := range p.FatTreeP {
		c := cells[i]
		tbl.AddRowf(fmt.Sprintf("%d", pp), c.flows, c.simTime, c.wall.Seconds(), c.heapMB, c.sysMB)
		values[fmt.Sprintf("p=%d/flows", pp)] = float64(c.flows)
		values[fmt.Sprintf("p=%d/wall_s", pp)] = c.wall.Seconds()
		values[fmt.Sprintf("p=%d/heap_mb", pp)] = c.heapMB
		values[fmt.Sprintf("p=%d/sys_mb", pp)] = c.sysMB
	}
	return &Result{
		ID:     "scale",
		Title:  "flow-level engine scaling on switching fabrics",
		Text:   tbl.String(),
		Values: values,
	}, nil
}
