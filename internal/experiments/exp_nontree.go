package experiments

import (
	"fmt"

	"dard"
	"dard/internal/metrics"
	"dard/internal/parallel"
)

// DragonflyDCell compares DARD against ECMP on the two non-tree
// families the path-provider abstraction added, on both engines. It is
// not a paper artifact — the paper evaluates multi-rooted trees only —
// but the question it answers is the paper's: does selfish per-host
// path selection still beat static hashing when the path sets are
// source-routed (dragonfly rails and Valiant detours, DCell proxy
// routes) instead of tree branches? The table shows mean transfer time
// and DARD's shift count per cell; Values adds DARD's relative
// improvement per (family, engine).
func DragonflyDCell(p Params) (*Result, error) {
	p = p.withDefaults()
	families := []struct {
		name string
		spec dard.TopologySpec
	}{
		{"dragonfly", dard.TopologySpec{Kind: dard.Dragonfly, D: 4, A: 3, HostsPerToR: 2}},
		{"dcell", dard.TopologySpec{Kind: dard.DCell, N: 3, Level: 1}},
	}
	engines := []dard.Engine{dard.EngineFlow, dard.EnginePacket}
	schedulers := []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerDARD}

	type cell struct {
		family string
		topo   *dard.Topology
		engine dard.Engine
		sched  dard.Scheduler
	}
	var cells []cell
	for _, fam := range families {
		for _, eng := range engines {
			// Packet cells run the testbed's 100 Mbps links so the suite's
			// transfer sizes live past the elephant age and DARD's loop has
			// something to move; flow cells keep the 1 Gbps default.
			spec := fam.spec
			if eng == dard.EnginePacket {
				spec.LinkCapacity = 100e6
			}
			topo, err := spec.Build()
			if err != nil {
				return nil, err
			}
			for _, sch := range schedulers {
				cells = append(cells, cell{fam.name, topo, eng, sch})
			}
		}
	}
	reports := make([]*dard.Report, len(cells))
	err := parallel.ForEach(p.Workers, len(cells), func(i int) error {
		c := cells[i]
		duration, fileMB, rate := p.Duration, p.FileSizeMB, p.RatePerHost
		if c.engine == dard.EnginePacket {
			duration, fileMB, rate = p.PacketDuration, p.PacketFileMB, p.PacketRate
		}
		scn := dard.Scenario{
			Topo:           c.topo,
			Scheduler:      c.sched,
			Engine:         c.engine,
			Pattern:        dard.PatternStride,
			RatePerHost:    rate,
			Duration:       duration,
			FileSizeMB:     fileMB,
			Seed:           p.Seed,
			ElephantAgeSec: 0.5,
			DARD:           quickDARDTuning(),
			TraceDir:       p.traceDir("dragonfly", c.family, string(c.engine)),
		}
		rep, err := scn.Run()
		if err != nil {
			return fmt.Errorf("%s/%s/%s: %w", c.family, c.engine, c.sched, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("DARD vs ECMP beyond the tree world (stride)",
		"family/engine/scheduler", "flows", "unfinished", "mean s", "shifts")
	values := make(map[string]float64)
	byCell := make(map[string]*dard.Report, len(cells))
	for i, c := range cells {
		rep := reports[i]
		label := fmt.Sprintf("%s/%s/%s", c.family, c.engine, c.sched)
		byCell[label] = rep
		tbl.AddRowf(label, rep.Flows, rep.Unfinished, rep.MeanTransferTime(), rep.DARDShifts)
		values[label+"/mean_s"] = rep.MeanTransferTime()
		values[label+"/shifts"] = float64(rep.DARDShifts)
		values[label+"/unfinished"] = float64(rep.Unfinished)
	}
	for _, fam := range families {
		for _, eng := range engines {
			ecmp := byCell[fmt.Sprintf("%s/%s/%s", fam.name, eng, dard.SchedulerECMP)]
			dd := byCell[fmt.Sprintf("%s/%s/%s", fam.name, eng, dard.SchedulerDARD)]
			values[fmt.Sprintf("%s/%s/improvement", fam.name, eng)] = dd.ImprovementOver(ecmp)
		}
	}
	return &Result{
		ID:     "dragonfly",
		Title:  "DARD vs ECMP on dragonfly and DCell fabrics",
		Text:   tbl.String(),
		Values: values,
	}, nil
}
