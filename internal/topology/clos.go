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
// makes the paper keep both uphill and downhill tables (§2.3).
type Clos struct {
	*base
	cfg ClosConfig

	intermediates []NodeID
	aggrs         []NodeID
	// tors[pair][t] is ToR t of aggregation pair `pair`.
	tors [][]NodeID

	// Uplink index tables backing PathSet; downlinks are the graph's
	// Reverse of the same entries.
	//
	// torAggrUp[torIdx*2 + j] is ToR torIdx -> aggr j of its pair.
	torAggrUp []LinkID
	// aggrIntUp[aggrIdx*DI + m] is aggr aggrIdx -> intermediate m.
	aggrIntUp []LinkID
}

var _ Network = (*Clos)(nil)

// NewClos builds a Clos network. "Pods" are aggregation pairs: hosts under
// ToRs of the same pair are intra-pod for workload purposes.
func NewClos(cfg ClosConfig) (*Clos, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("clos config: %w", err)
	}
	g := NewGraph()
	cl := &Clos{
		base: newBase(fmt.Sprintf("clos(DI=%d,DA=%d)", cfg.DI, cfg.DA), g),
		cfg:  cfg,
	}

	cl.intermediates = make([]NodeID, cfg.DI)
	for i := range cl.intermediates {
		cl.intermediates[i] = g.AddNode(Core, fmt.Sprintf("int%d", i+1), -1, i)
	}
	cl.aggrs = make([]NodeID, cfg.DA)
	for a := range cl.aggrs {
		cl.aggrs[a] = g.AddNode(Aggr, fmt.Sprintf("aggr%d", a+1), a/2, a)
	}
	// Complete bipartite aggr <-> intermediate mesh.
	for _, a := range cl.aggrs {
		for _, i := range cl.intermediates {
			g.AddDuplex(a, i, cfg.LinkCapacity, cfg.LinkDelay)
		}
	}

	pairs := cfg.DA / 2
	cl.tors = make([][]NodeID, pairs)
	hostIdx := 0
	torIdx := 0
	for pair := 0; pair < pairs; pair++ {
		cl.tors[pair] = make([]NodeID, cfg.ToRsPerPair)
		for t := 0; t < cfg.ToRsPerPair; t++ {
			tor := g.AddNode(ToR, fmt.Sprintf("tor%d_%d", pair+1, t+1), pair, torIdx)
			torIdx++
			cl.tors[pair][t] = tor
			g.AddDuplex(tor, cl.aggrs[2*pair], cfg.LinkCapacity, cfg.LinkDelay)
			g.AddDuplex(tor, cl.aggrs[2*pair+1], cfg.LinkCapacity, cfg.LinkDelay)
			for h := 0; h < cfg.HostsPerToR; h++ {
				hostIdx++
				cl.attachHost(fmt.Sprintf("E%d", hostIdx), pair, hostIdx-1, tor,
					cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("clos construction: %w", err)
	}
	cl.torAggrUp = make([]LinkID, torIdx*2)
	for pair := 0; pair < pairs; pair++ {
		for _, tor := range cl.tors[pair] {
			ti := g.Node(tor).Index
			cl.torAggrUp[ti*2] = mustLink(g, tor, cl.aggrs[2*pair])
			cl.torAggrUp[ti*2+1] = mustLink(g, tor, cl.aggrs[2*pair+1])
		}
	}
	cl.aggrIntUp = make([]LinkID, cfg.DA*cfg.DI)
	for a, aggr := range cl.aggrs {
		for m, mid := range cl.intermediates {
			cl.aggrIntUp[a*cfg.DI+m] = mustLink(g, aggr, mid)
		}
	}
	return cl, nil
}

// Intermediates lists the intermediate (top-tier) switches.
func (cl *Clos) Intermediates() []NodeID { return cl.intermediates }

// Aggrs lists the aggregation switches.
func (cl *Clos) Aggrs() []NodeID { return cl.aggrs }

// AggrPairOf returns the two aggregation switches serving a ToR.
func (cl *Clos) AggrPairOf(tor NodeID) [2]NodeID {
	pair := cl.g.node(tor).Pod
	return [2]NodeID{cl.aggrs[2*pair], cl.aggrs[2*pair+1]}
}

// PathSet implements Network. Cross-pair path i decodes in buildPaths
// order as the (uphill aggr j, intermediate m, downhill aggr k) triple
// with i = j*(DI*2) + m*2 + k; intra-pair path i goes via shared aggr i.
func (cl *Clos) PathSet(srcToR, dstToR NodeID) PathSet {
	n := 1
	if srcToR != dstToR {
		if cl.g.node(srcToR).Pod == cl.g.node(dstToR).Pod {
			n = 2
		} else {
			n = 4 * cl.cfg.DI
		}
	}
	return PathSet{r: cl, src: srcToR, dst: dstToR, n: int32(n)}
}

// appendPathLinks implements PathProvider.
func (cl *Clos) appendPathLinks(src, dst NodeID, i int, buf []LinkID) []LinkID {
	g := cl.g
	sn, dn := g.node(src), g.node(dst)
	if sn.Pod == dn.Pod {
		return append(buf,
			cl.torAggrUp[sn.Index*2+i],
			g.Reverse(cl.torAggrUp[dn.Index*2+i]))
	}
	di := cl.cfg.DI
	j, rem := i/(di*2), i%(di*2)
	m, k := rem/2, rem%2
	return append(buf,
		cl.torAggrUp[sn.Index*2+j],
		cl.aggrIntUp[(2*sn.Pod+j)*di+m],
		g.Reverse(cl.aggrIntUp[(2*dn.Pod+k)*di+m]),
		g.Reverse(cl.torAggrUp[dn.Index*2+k]))
}

// appendSwitches implements PathProvider: the source ToR and its aggr
// pair, plus every intermediate and the destination's aggr pair across
// pairs. NewClos numbers the intermediates, then the aggrs in pair
// order, then the ToRs, so appending in that order keeps IDs ascending.
func (cl *Clos) appendSwitches(src, dst NodeID, buf []NodeID) []NodeID {
	sp, dp := cl.g.node(src).Pod, cl.g.node(dst).Pod
	if sp == dp {
		return append(append(buf, cl.aggrs[2*sp:2*sp+2]...), src)
	}
	lo, hi := min(sp, dp), max(sp, dp)
	buf = append(buf, cl.intermediates...)
	buf = append(append(buf, cl.aggrs[2*lo:2*lo+2]...), cl.aggrs[2*hi:2*hi+2]...)
	return append(buf, src)
}

// pathVia implements PathProvider. Cross-pair labels are joined on
// demand; they exist only for traces and display.
func (cl *Clos) pathVia(src, dst NodeID, i int) string {
	g := cl.g
	sn, dn := g.node(src), g.node(dst)
	if sn.Pod == dn.Pod {
		return g.node(cl.aggrs[2*sn.Pod+i]).Name
	}
	di := cl.cfg.DI
	j, rem := i/(di*2), i%(di*2)
	m, k := rem/2, rem%2
	return joinVia(
		g.node(cl.aggrs[2*sn.Pod+j]).Name,
		g.node(cl.intermediates[m]).Name,
		g.node(cl.aggrs[2*dn.Pod+k]).Name)
}

// buildPaths enumerates the paths from srcToR to dstToR by walking the
// graph, independently of the index tables PathSet decodes: the link
// sequences and their Via labels, in PathSet order. Cross-pair paths are
// labeled "aggrU>intI>aggrD"; intra-pair paths by the shared aggregation
// switch. It is the oracle pathset_test.go checks PathSet against.
func (cl *Clos) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	if srcToR == dstToR {
		return [][]LinkID{nil}, []string{"direct"}
	}
	g := cl.g
	srcPair := cl.AggrPairOf(srcToR)
	dstPair := cl.AggrPairOf(dstToR)
	var links [][]LinkID
	var vias []string
	if g.Node(srcToR).Pod == g.Node(dstToR).Pod {
		for _, aggr := range srcPair {
			links = append(links, []LinkID{mustLink(g, srcToR, aggr), mustLink(g, aggr, dstToR)})
			vias = append(vias, g.Node(aggr).Name)
		}
		return links, vias
	}
	for _, up := range srcPair {
		for _, mid := range cl.intermediates {
			for _, down := range dstPair {
				links = append(links, []LinkID{
					mustLink(g, srcToR, up),
					mustLink(g, up, mid),
					mustLink(g, mid, down),
					mustLink(g, down, dstToR),
				})
				vias = append(vias, joinVia(g.Node(up).Name, g.Node(mid).Name, g.Node(down).Name))
			}
		}
	}
	return links, vias
}
