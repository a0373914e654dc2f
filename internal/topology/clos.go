package topology

import (
	"fmt"

	"dard/internal/fpcmp"
)

// ClosConfig parameterizes a VL2-style Clos network (Greenberg et al.,
// SIGCOMM 2009): D_I intermediate switches at the top, D_A aggregation
// switches below them in a complete bipartite mesh, and dual-homed ToR
// switches. The paper evaluates D_I = D_A = 4, 8, 16.
type ClosConfig struct {
	// DI is the number of intermediate switches.
	DI int
	// DA is the number of aggregation switches; must be even because ToRs
	// dual-home to an adjacent aggregation pair.
	DA int
	// ToRsPerPair is the number of ToR switches attached to each
	// aggregation pair. Zero means DI/2, giving VL2's DA*DI/4 ToRs total.
	ToRsPerPair int
	// HostsPerToR is the number of hosts per ToR. Zero means 4.
	HostsPerToR int
	// LinkCapacity is the bandwidth of every link in bits per second.
	// Defaults to 1 Gbps.
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay in seconds. Defaults to
	// 0.1 ms.
	LinkDelay float64
}

// Name renders the name the built Clos carries, e.g. "clos(DI=8,DA=8)".
func (c ClosConfig) Name() string { return fmt.Sprintf("clos(DI=%d,DA=%d)", c.DI, c.DA) }

// Build constructs the Clos.
func (c ClosConfig) Build() (Network, error) { return NewClos(c) }

func (c *ClosConfig) applyDefaults() error {
	if c.DI < 1 || c.DI > 1024 {
		return fmt.Errorf("%w: clos intermediate switch count %d outside [1, 1024]", ErrConfig, c.DI)
	}
	if c.DA < 2 || c.DA%2 != 0 || c.DA > 1024 {
		return fmt.Errorf("%w: clos aggregation count must be even and in [2, 1024], got %d", ErrConfig, c.DA)
	}
	if c.ToRsPerPair == 0 {
		c.ToRsPerPair = c.DI / 2
	}
	if c.ToRsPerPair < 1 || c.ToRsPerPair > 1024 {
		return fmt.Errorf("%w: clos ToRs per aggregation pair %d outside [1, 1024]", ErrConfig, c.ToRsPerPair)
	}
	if c.HostsPerToR == 0 {
		c.HostsPerToR = 4
	}
	if c.HostsPerToR < 0 || c.HostsPerToR > 1024 {
		return fmt.Errorf("%w: hosts per ToR %d outside [0, 1024]", ErrConfig, c.HostsPerToR)
	}
	if fpcmp.IsZero(c.LinkCapacity) {
		c.LinkCapacity = 1e9
	}
	if fpcmp.IsZero(c.LinkDelay) {
		c.LinkDelay = 0.1e-3
	}
	return nil
}

// Clos is a VL2-style Clos network. In a Clos network a ToR-to-ToR path is
// determined by the (uphill aggregation, intermediate, downhill
// aggregation) triple, not by the intermediate alone — the property that
// makes the paper keep both uphill and downhill tables (§2.3). Its
// "pods" are aggregation pairs, and every aggr reaches every
// intermediate.
type Clos struct {
	upDown
	cfg ClosConfig
}

var _ Network = (*Clos)(nil)

// NewClos builds a Clos network. "Pods" are aggregation pairs: hosts under
// ToRs of the same pair are intra-pod for workload purposes.
func NewClos(cfg ClosConfig) (*Clos, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("clos config: %w", err)
	}
	pairs := cfg.DA / 2
	numToRs := pairs * cfg.ToRsPerPair
	hosts := numToRs * cfg.HostsPerToR
	// Intermediates, aggrs, ToRs and hosts; the aggr-intermediate mesh,
	// two uplinks per ToR and host cables.
	g := newGraph(cfg.DI+cfg.DA+numToRs+hosts, cfg.DA*cfg.DI+2*numToRs+hosts)
	b := newBase(cfg.Name(), g, hosts)

	intermediates := make([]NodeID, cfg.DI)
	for i := range intermediates {
		intermediates[i] = g.AddNode(Core, fmt.Sprintf("int%d", i+1), -1, i)
	}
	aggrs := make([]NodeID, cfg.DA)
	for a := range aggrs {
		aggrs[a] = g.AddNode(Aggr, fmt.Sprintf("aggr%d", a+1), a/2, a)
	}
	// Complete bipartite aggr <-> intermediate mesh.
	for _, a := range aggrs {
		for _, i := range intermediates {
			g.AddDuplex(a, i, cfg.LinkCapacity, cfg.LinkDelay)
		}
	}

	tors := make([]NodeID, 0, numToRs)
	hostIdx := 0
	for pair := 0; pair < pairs; pair++ {
		for t := 0; t < cfg.ToRsPerPair; t++ {
			tor := g.AddNode(ToR, fmt.Sprintf("tor%d_%d", pair+1, t+1), pair, len(tors))
			tors = append(tors, tor)
			g.AddDuplex(tor, aggrs[2*pair], cfg.LinkCapacity, cfg.LinkDelay)
			g.AddDuplex(tor, aggrs[2*pair+1], cfg.LinkCapacity, cfg.LinkDelay)
			for h := 0; h < cfg.HostsPerToR; h++ {
				hostIdx++
				b.attachHost(fmt.Sprintf("E%d", hostIdx), pair, hostIdx-1, tor,
					cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("clos construction: %w", err)
	}
	return &Clos{upDown: newUpDown(b, intermediates, aggrs, tors, false), cfg: cfg}, nil
}

// Intermediates lists the intermediate (top-tier) switches.
func (cl *Clos) Intermediates() []NodeID { return cl.tops }

// Aggrs lists the aggregation switches.
func (cl *Clos) Aggrs() []NodeID { return cl.aggrs }

// AggrPairOf returns the two aggregation switches serving a ToR.
func (cl *Clos) AggrPairOf(tor NodeID) [2]NodeID {
	return [2]NodeID(cl.podAggrs(cl.g.node(tor).Pod))
}
