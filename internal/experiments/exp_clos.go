package experiments

import (
	"dard"
)

// ClosStudy runs the Clos grid of §4.3.2 once and renders the four
// artifacts drawn from it: Figure 9's transfer-time CDFs and Figure 10's
// path-switch CDF on the large Clos network (BigD), and Table 6's mean
// transfer times and Table 7's DARD path-switch percentiles across the
// ClosD sizes.
func ClosStudy(p Params) ([]*Result, error) {
	p = p.withDefaults()
	big, bySize, err := sizeRuns(p, dard.Clos, p.ClosD, p.BigD, "table6")
	if err != nil {
		return nil, err
	}
	return []*Result{
		transferCDFs("Figure 9", "transfer time CDFs on {topo}", big),
		switchCDF("Figure 10", "path switch count CDF on {topo}", big),
		transferTable("Table 6", "average file transfer time (s) on Clos topologies", dard.Clos, p.ClosD, bySize),
		switchTable("Table 7", "DARD 90th-percentile and max path switch times on Clos topologies", dard.Clos, p.ClosD, bySize),
	}, nil
}

// ThreeTierStudy runs the oversubscribed 8-core-3-tier grid of §4.3.2
// once and renders Figure 11's transfer-time CDFs (DARD beats the
// centralized scheduler under intra-pod-dominant, staggered traffic and
// tracks it closely under stride) and Figure 12's path-switch CDF.
func ThreeTierStudy(p Params) ([]*Result, error) {
	p = p.withDefaults()
	topo, err := threeTierSpec(p).Build()
	if err != nil {
		return nil, err
	}
	base := threeTierScenario(p)
	base.TraceDir = p.traceDir("figure11")
	runs, err := runGrid(p, base, []*dard.Topology{topo}, flowSchedulers)
	if err != nil {
		return nil, err
	}
	return []*Result{
		transferCDFs("Figure 11", "transfer time CDFs on {topo} (oversubscribed)", runs[0]),
		switchCDF("Figure 12", "path switch count CDF on {topo}", runs[0]),
	}, nil
}

// threeTierSpec trims the three-tier edge for laptop-scale runs: 4 hosts
// per access switch unless the caller overrides.
func threeTierSpec(p Params) dard.TopologySpec {
	hosts := p.HostsPerToR
	if hosts == 0 {
		hosts = 4
	}
	return dard.TopologySpec{Kind: dard.ThreeTier, HostsPerToR: hosts}
}

// threeTierScenario divides the per-host arrival rate by the 2.5:1 access
// oversubscription so the offered fabric load matches the fat-tree and
// Clos sweeps instead of collapsing the access links.
func threeTierScenario(p Params) dard.Scenario {
	s := fatTreeScenario(p)
	s.RatePerHost = p.RatePerHost / 2.5
	return s
}
