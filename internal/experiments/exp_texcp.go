package experiments

import (
	"dard"
)

// texcpRuns executes the DARD-vs-TeXCP comparison once (p=4 fat-tree,
// stride, packet engine) and returns both reports; Figures 13 and 14 are
// two views of the same experiment (§4.3.3).
func texcpRuns(p Params) (dardRep, texcpRep *dard.Report, err error) {
	topo, err := testbedSpec().Build()
	if err != nil {
		return nil, nil, err
	}
	base := dard.Scenario{
		RatePerHost:    p.PacketRate,
		Duration:       p.PacketDuration,
		FileSizeMB:     p.PacketFileMB,
		Seed:           p.Seed,
		Engine:         dard.EnginePacket,
		ElephantAgeSec: 0.5,
		DARD:           quickDARDTuning(),
		// Figures 13 and 14 render the same runs; the second call rewrites
		// byte-identical trace files.
		TraceDir: p.traceDir("figure13-14"),
	}
	// The two packet-engine runs are the suite's slowest cells; the pool
	// overlaps them (on one derived seed, so the comparison stays paired).
	reports, err := dard.RunAll(grid(base, []*dard.Topology{topo}, []dard.Pattern{dard.PatternStride},
		[]dard.Scheduler{dard.SchedulerDARD, dard.SchedulerTeXCP}), p.Workers)
	if err != nil {
		return nil, nil, err
	}
	return reports[0], reports[1], nil
}

// Figure13 reproduces the DARD-vs-TeXCP transfer-time CDF under stride
// traffic: both fill the bisection, DARD slightly ahead because its flows
// keep segments in order.
func Figure13(p Params) (*Result, error) {
	p = p.withDefaults()
	dd, tx, err := texcpRuns(p)
	if err != nil {
		return nil, err
	}
	series := map[string][]float64{
		"DARD":  dd.TransferTimes,
		"TeXCP": tx.TransferTimes,
	}
	values := map[string]float64{
		"DARD/mean":      dd.MeanTransferTime(),
		"TeXCP/mean":     tx.MeanTransferTime(),
		"DARD/coreUtil":  dd.CoreUtilization,
		"TeXCP/coreUtil": tx.CoreUtilization,
	}
	return &Result{
		ID:     "Figure 13",
		Title:  "DARD vs TeXCP transfer time CDF, p=4 fat-tree, stride (packet engine)",
		Text:   cdfBlock("transfer time (s)", series),
		Values: values,
	}, nil
}

// Figure14 reproduces the retransmission-rate CDF: TeXCP's per-packet
// splitting reorders segments and retransmits more than DARD.
func Figure14(p Params) (*Result, error) {
	p = p.withDefaults()
	dd, tx, err := texcpRuns(p)
	if err != nil {
		return nil, err
	}
	series := map[string][]float64{
		"DARD":  dd.RetxRates,
		"TeXCP": tx.RetxRates,
	}
	values := map[string]float64{
		"DARD/meanRetxRate":  dd.RetxRateMean(),
		"TeXCP/meanRetxRate": tx.RetxRateMean(),
	}
	return &Result{
		ID:     "Figure 14",
		Title:  "DARD vs TeXCP TCP retransmission rate CDF (packet engine)",
		Text:   cdfBlock("retransmission rate", series),
		Values: values,
	}, nil
}
