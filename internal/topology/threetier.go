package topology

import (
	"fmt"

	"dard/internal/fpcmp"
)

// ThreeTierConfig parameterizes a traditional 8-core-3-tier datacenter
// network in the style of the Cisco Data Center Infrastructure 2.5 design
// guide, the oversubscribed topology of the paper's §4.3.2. With the
// defaults, the access layer is oversubscribed 2.5:1 (10 x 1 Gbps of host
// bandwidth over 2 x 2 Gbps of uplink) and the aggregation layer 1.5:1
// (6 x 2 Gbps down over 8 x 1 Gbps up), matching the paper.
type ThreeTierConfig struct {
	// NumCores is the number of core switches. Defaults to 8.
	NumCores int
	// NumPods is the number of aggregation pods. Defaults to 4.
	NumPods int
	// AccessPerPod is the number of access (ToR) switches per pod.
	// Defaults to 6.
	AccessPerPod int
	// HostsPerAccess is the number of hosts per access switch. Defaults
	// to 10.
	HostsPerAccess int
	// HostCapacity is the host link bandwidth in bits per second.
	// Defaults to 1 Gbps.
	HostCapacity float64
	// AccessUplink is the bandwidth of each access->aggregation link.
	// Defaults to 2 Gbps (2.5:1 access oversubscription).
	AccessUplink float64
	// AggrUplink is the bandwidth of each aggregation->core link.
	// Defaults to 1 Gbps (1.5:1 aggregation oversubscription).
	AggrUplink float64
	// LinkDelay is the one-way propagation delay in seconds. Defaults to
	// 0.1 ms.
	LinkDelay float64
}

// Name renders the name the built three-tier network carries, e.g.
// "threetier(cores=8,pods=4)", from the configuration with its defaults
// applied (a dimension out of range renders as given).
func (c ThreeTierConfig) Name() string {
	_ = c.applyDefaults()
	return fmt.Sprintf("threetier(cores=%d,pods=%d)", c.NumCores, c.NumPods)
}

// Build constructs the three-tier network.
func (c ThreeTierConfig) Build() (Network, error) { return NewThreeTier(c) }

func (c *ThreeTierConfig) applyDefaults() error {
	if c.NumCores == 0 {
		c.NumCores = 8
	}
	if c.NumPods == 0 {
		c.NumPods = 4
	}
	if c.AccessPerPod == 0 {
		c.AccessPerPod = 6
	}
	if c.HostsPerAccess == 0 {
		c.HostsPerAccess = 10
	}
	if fpcmp.IsZero(c.HostCapacity) {
		c.HostCapacity = 1e9
	}
	if fpcmp.IsZero(c.AccessUplink) {
		c.AccessUplink = 2e9
	}
	if fpcmp.IsZero(c.AggrUplink) {
		c.AggrUplink = 1e9
	}
	if fpcmp.IsZero(c.LinkDelay) {
		c.LinkDelay = 0.1e-3
	}
	if c.NumCores < 1 || c.NumPods < 1 || c.AccessPerPod < 1 || c.HostsPerAccess < 0 {
		return fmt.Errorf("%w: three-tier config has non-positive dimension: %+v", ErrConfig, *c)
	}
	if c.NumCores > 256 || c.NumPods > 256 || c.AccessPerPod > 256 || c.HostsPerAccess > 1024 {
		return fmt.Errorf("%w: three-tier dimension exceeds cap: %+v", ErrConfig, *c)
	}
	if c.HostCapacity < 0 || c.AccessUplink < 0 || c.AggrUplink < 0 {
		return fmt.Errorf("%w: three-tier config has negative capacity: %+v", ErrConfig, *c)
	}
	return nil
}

// ThreeTier is a traditional oversubscribed three-tier topology: cores at
// the top, two aggregation switches per pod, dual-homed access switches,
// and every aggr reaches every core.
type ThreeTier struct {
	upDown
	cfg ThreeTierConfig
}

var _ Network = (*ThreeTier)(nil)

// NewThreeTier builds the oversubscribed 8-core-3-tier topology.
func NewThreeTier(cfg ThreeTierConfig) (*ThreeTier, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("three-tier config: %w", err)
	}
	numAggrs := 2 * cfg.NumPods
	numAccess := cfg.NumPods * cfg.AccessPerPod
	hosts := numAccess * cfg.HostsPerAccess
	// Cores, aggrs, access switches and hosts; aggr-core, two uplinks
	// per access switch and host cables.
	g := newGraph(cfg.NumCores+numAggrs+numAccess+hosts, numAggrs*cfg.NumCores+2*numAccess+hosts)
	b := newBase(cfg.Name(), g, hosts)

	cores := make([]NodeID, cfg.NumCores)
	for c := range cores {
		cores[c] = g.AddNode(Core, fmt.Sprintf("core%d", c+1), -1, c)
	}
	aggrs := make([]NodeID, 0, numAggrs)
	access := make([]NodeID, 0, numAccess)
	hostIdx := 0
	for pod := 0; pod < cfg.NumPods; pod++ {
		for a := 0; a < 2; a++ {
			aggr := g.AddNode(Aggr, fmt.Sprintf("aggr%d_%d", pod+1, a+1), pod, pod*2+a)
			aggrs = append(aggrs, aggr)
			for _, core := range cores {
				g.AddDuplex(aggr, core, cfg.AggrUplink, cfg.LinkDelay)
			}
		}
		for t := 0; t < cfg.AccessPerPod; t++ {
			acc := g.AddNode(ToR, fmt.Sprintf("acc%d_%d", pod+1, t+1), pod, len(access))
			access = append(access, acc)
			g.AddDuplex(acc, aggrs[2*pod], cfg.AccessUplink, cfg.LinkDelay)
			g.AddDuplex(acc, aggrs[2*pod+1], cfg.AccessUplink, cfg.LinkDelay)
			for h := 0; h < cfg.HostsPerAccess; h++ {
				hostIdx++
				b.attachHost(fmt.Sprintf("E%d", hostIdx), pod, hostIdx-1, acc,
					cfg.HostCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("three-tier construction: %w", err)
	}
	return &ThreeTier{upDown: newUpDown(b, cores, aggrs, access, false), cfg: cfg}, nil
}

// Cores lists the core switches.
func (tt *ThreeTier) Cores() []NodeID { return tt.tops }

// AccessOversubscription reports the configured access-layer
// oversubscription ratio (host bandwidth over uplink bandwidth).
func (tt *ThreeTier) AccessOversubscription() float64 {
	return float64(tt.cfg.HostsPerAccess) * tt.cfg.HostCapacity / (2 * tt.cfg.AccessUplink)
}

// AggrOversubscription reports the configured aggregation-layer
// oversubscription ratio (downlink bandwidth over uplink bandwidth).
func (tt *ThreeTier) AggrOversubscription() float64 {
	down := float64(tt.cfg.AccessPerPod) * tt.cfg.AccessUplink
	up := float64(tt.cfg.NumCores) * tt.cfg.AggrUplink
	return down / up
}
