package topology

import (
	"fmt"

	"dard/internal/fpcmp"
)

// FatTreeConfig parameterizes a p-port fat-tree (Al-Fares et al., SIGCOMM
// 2008), the main topology in the paper's evaluation.
type FatTreeConfig struct {
	// P is the switch port count; must be even and >= 4. The fat-tree has
	// p pods, p/2 ToR and p/2 aggregation switches per pod, p/2 hosts per
	// ToR, and p*p/4 core switches, for p^3/4 hosts total.
	P int
	// LinkCapacity is the bandwidth of every link in bits per second.
	// Defaults to 1 Gbps, the paper's simulation setting.
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay of every link in
	// seconds. Defaults to 0.1 ms, the paper's simulation setting.
	LinkDelay float64
	// HostsPerToR overrides the number of hosts attached to each ToR.
	// Zero means the fat-tree default of p/2. The paper-scale p=32 tree
	// has 8192 hosts; scaled-down runs attach fewer hosts per ToR while
	// keeping the switching fabric intact.
	HostsPerToR int
}

// Name renders the name the built fat-tree carries, e.g. "fattree(p=8)".
func (c FatTreeConfig) Name() string { return fmt.Sprintf("fattree(p=%d)", c.P) }

// Build constructs the fat-tree.
func (c FatTreeConfig) Build() (Network, error) { return NewFatTree(c) }

func (c *FatTreeConfig) applyDefaults() error {
	if c.P < 4 || c.P%2 != 0 {
		return fmt.Errorf("%w: fat-tree port count must be an even integer >= 4, got %d", ErrConfig, c.P)
	}
	if c.P > 128 {
		return fmt.Errorf("%w: fat-tree port count %d exceeds the 128-port cap", ErrConfig, c.P)
	}
	if fpcmp.IsZero(c.LinkCapacity) {
		c.LinkCapacity = 1e9
	}
	if c.LinkCapacity < 0 {
		return fmt.Errorf("%w: negative link capacity %g", ErrConfig, c.LinkCapacity)
	}
	if fpcmp.IsZero(c.LinkDelay) {
		c.LinkDelay = 0.1e-3
	}
	if c.HostsPerToR == 0 {
		c.HostsPerToR = c.P / 2
	}
	if c.HostsPerToR < 0 || c.HostsPerToR > 1024 {
		return fmt.Errorf("%w: hosts per ToR %d outside [0, 1024]", ErrConfig, c.HostsPerToR)
	}
	return nil
}

// FatTree is a p-port fat-tree topology: the grouped up/down tree, in
// which aggr a of every pod reaches only core group a.
type FatTree struct {
	upDown
	cfg FatTreeConfig
}

var _ Network = (*FatTree)(nil)

// NewFatTree builds a fat-tree.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("fat-tree config: %w", err)
	}
	p := cfg.P
	half := p / 2
	hosts := p * half * cfg.HostsPerToR
	// Cores, aggrs, ToRs and hosts; aggr-core, ToR-aggr and host cables.
	g := newGraph(half*half+2*p*half+hosts, 2*p*half*half+hosts)
	b := newBase(cfg.Name(), g, hosts)

	cores := make([]NodeID, half*half)
	for c := range cores {
		cores[c] = g.AddNode(Core, fmt.Sprintf("core%d", c+1), -1, c)
	}
	aggrs := make([]NodeID, 0, p*half)
	tors := make([]NodeID, 0, p*half)
	hostIdx := 0
	for pod := 0; pod < p; pod++ {
		for a := 0; a < half; a++ {
			aggrs = append(aggrs, g.AddNode(Aggr, fmt.Sprintf("aggr%d_%d", pod+1, a+1), pod, pod*half+a))
		}
		for t := 0; t < half; t++ {
			tors = append(tors, g.AddNode(ToR, fmt.Sprintf("tor%d_%d", pod+1, t+1), pod, pod*half+t))
		}
		podAggrs, podToRs := aggrs[pod*half:], tors[pod*half:]
		// Aggr <-> core: aggr a serves core group a.
		for a, aggr := range podAggrs {
			for i := 0; i < half; i++ {
				g.AddDuplex(aggr, cores[a*half+i], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
		// ToR <-> every aggr in the pod.
		for _, tor := range podToRs {
			for _, aggr := range podAggrs {
				g.AddDuplex(tor, aggr, cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
		// Hosts.
		for _, tor := range podToRs {
			for h := 0; h < cfg.HostsPerToR; h++ {
				hostIdx++
				b.attachHost(fmt.Sprintf("E%d", hostIdx), pod, hostIdx-1, tor, cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("fat-tree construction: %w", err)
	}
	return &FatTree{upDown: newUpDown(b, cores, aggrs, tors, true), cfg: cfg}, nil
}

// P returns the port count.
func (ft *FatTree) P() int { return ft.cfg.P }

// Cores lists the core switches.
func (ft *FatTree) Cores() []NodeID { return ft.tops }

// AggrsOfPod lists the aggregation switches of a pod.
func (ft *FatTree) AggrsOfPod(pod int) []NodeID { return ft.podAggrs(pod) }

// ToRsOfPod lists the ToR switches of a pod.
func (ft *FatTree) ToRsOfPod(pod int) []NodeID {
	lo, hi := pod*ft.width, (pod+1)*ft.width
	return ft.tors[lo:hi:hi]
}
