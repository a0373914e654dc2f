package experiments

import (
	"dard"
)

// Figure9 reproduces the transfer-time CDFs on the large Clos network
// (§4.3.2).
func Figure9(p Params) (*Result, error) {
	p = p.withDefaults()
	return transferCDFs(p, "Figure 9", "transfer time CDFs on {topo}", sizeSpec(p, dard.Clos, p.BigD), fatTreeScenario(p))
}

// Figure10 reproduces DARD's path-switch CDF on the large Clos network.
func Figure10(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchCDF(p, "Figure 10", "path switch count CDF on {topo}", sizeSpec(p, dard.Clos, p.BigD), fatTreeScenario(p))
}

// Table6 reproduces the average-transfer-time table across Clos sizes.
func Table6(p Params) (*Result, error) {
	p = p.withDefaults()
	return sizeSweep(p, "Table 6", "average file transfer time (s) on Clos topologies", dard.Clos, p.ClosD)
}

// Table7 reproduces DARD's path-switch percentiles on Clos topologies.
func Table7(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchSweep(p, "Table 7", "DARD 90th-percentile and max path switch times on Clos topologies", dard.Clos, p.ClosD)
}

// Figure11 reproduces the transfer-time CDFs on the oversubscribed
// 8-core-3-tier topology (§4.3.2): DARD beats the centralized scheduler
// under intra-pod-dominant (staggered) traffic and tracks it closely
// under stride.
func Figure11(p Params) (*Result, error) {
	p = p.withDefaults()
	return transferCDFs(p, "Figure 11", "transfer time CDFs on {topo} (oversubscribed)", threeTierSpec(p), threeTierScenario(p))
}

// Figure12 reproduces DARD's path-switch CDF on the three-tier topology.
func Figure12(p Params) (*Result, error) {
	p = p.withDefaults()
	return switchCDF(p, "Figure 12", "path switch count CDF on {topo}", threeTierSpec(p), threeTierScenario(p))
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
