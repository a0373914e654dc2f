package experiments

import (
	"dard"
	"dard/internal/metrics"
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

	var cells []dard.Scenario
	var famEng []string // each cell's "family/engine"
	for _, fam := range families {
		for _, eng := range engines {
			// Packet cells run the testbed's 100 Mbps links so the suite's
			// transfer sizes live past the elephant age and DARD's loop has
			// something to move; flow cells keep the 1 Gbps default.
			spec := fam.spec
			duration, fileMB, rate := p.Duration, p.FileSizeMB, p.RatePerHost
			if eng == dard.EnginePacket {
				spec.LinkCapacity = 100e6
				duration, fileMB, rate = p.PacketDuration, p.PacketFileMB, p.PacketRate
			}
			topo, err := spec.Build()
			if err != nil {
				return nil, err
			}
			for _, sch := range schedulers {
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
					TraceDir:       p.traceDir("dragonfly", fam.name, string(eng)),
				})
				famEng = append(famEng, fam.name+"/"+string(eng))
			}
		}
	}
	reports, err := dard.RunAll(cells, p.Workers)
	if err != nil {
		return nil, err
	}
	tbl := metrics.NewTable("DARD vs ECMP beyond the tree world (stride)",
		"family/engine/scheduler", "flows", "unfinished", "mean s", "shifts")
	values := make(map[string]float64)
	for i, rep := range reports {
		label := famEng[i] + "/" + string(cells[i].Scheduler)
		tbl.AddRowf(label, rep.Flows, rep.Unfinished, rep.MeanTransferTime(), rep.DARDShifts)
		values[label+"/mean_s"] = rep.MeanTransferTime()
		values[label+"/shifts"] = float64(rep.DARDShifts)
		values[label+"/unfinished"] = float64(rep.Unfinished)
	}
	// schedulers is {ECMP, DARD}: each (family, engine) pair is adjacent.
	for i := 0; i < len(reports); i += 2 {
		values[famEng[i]+"/improvement"] = reports[i+1].ImprovementOver(reports[i])
	}
	return &Result{
		ID:     "dragonfly",
		Title:  "DARD vs ECMP on dragonfly and DCell fabrics",
		Text:   tbl.String(),
		Values: values,
	}, nil
}
