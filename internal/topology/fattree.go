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

// FatTree is a p-port fat-tree topology.
type FatTree struct {
	*base
	cfg FatTreeConfig

	cores []NodeID // (p/2)^2 cores; core c attaches to aggr group c/(p/2)
	// aggrs[pod][a] is aggregation switch a of the pod.
	aggrs [][]NodeID
	// tors[pod][t] is ToR t of the pod.
	tors [][]NodeID

	// Uplink index tables backing PathSet: every path is resolved from
	// these O(p^3) entries (a few MB even at p=128) instead of per-pair
	// storage. Downlinks are the graph's Reverse of the same entries.
	//
	// torAggrUp[torIdx*half + a] is ToR torIdx -> aggr a of its pod.
	torAggrUp []LinkID
	// aggrCoreUp[aggrIdx*half + i] is aggr aggrIdx -> core (a*half + i)
	// where a is the aggr's position in its pod.
	aggrCoreUp []LinkID
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
	ft := &FatTree{
		base: newBase(cfg.Name(), g, hosts),
		cfg:  cfg,
	}

	numCores := half * half
	ft.cores = make([]NodeID, numCores)
	for c := 0; c < numCores; c++ {
		ft.cores[c] = g.AddNode(Core, fmt.Sprintf("core%d", c+1), -1, c)
	}

	ft.aggrs = make([][]NodeID, p)
	ft.tors = make([][]NodeID, p)
	hostIdx := 0
	for pod := 0; pod < p; pod++ {
		ft.aggrs[pod] = make([]NodeID, half)
		ft.tors[pod] = make([]NodeID, half)
		for a := 0; a < half; a++ {
			ft.aggrs[pod][a] = g.AddNode(Aggr, fmt.Sprintf("aggr%d_%d", pod+1, a+1), pod, pod*half+a)
		}
		for t := 0; t < half; t++ {
			ft.tors[pod][t] = g.AddNode(ToR, fmt.Sprintf("tor%d_%d", pod+1, t+1), pod, pod*half+t)
		}
		// Aggr <-> core: aggr a serves core group a.
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				g.AddDuplex(ft.aggrs[pod][a], ft.cores[a*half+i], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
		// ToR <-> every aggr in the pod.
		for t := 0; t < half; t++ {
			for a := 0; a < half; a++ {
				g.AddDuplex(ft.tors[pod][t], ft.aggrs[pod][a], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
		// Hosts.
		for t := 0; t < half; t++ {
			for h := 0; h < cfg.HostsPerToR; h++ {
				hostIdx++
				ft.attachHost(fmt.Sprintf("E%d", hostIdx), pod, hostIdx-1,
					ft.tors[pod][t], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("fat-tree construction: %w", err)
	}
	ft.torAggrUp = make([]LinkID, p*half*half)
	ft.aggrCoreUp = make([]LinkID, p*half*half)
	for pod := 0; pod < p; pod++ {
		for t := 0; t < half; t++ {
			torIdx := pod*half + t
			for a := 0; a < half; a++ {
				ft.torAggrUp[torIdx*half+a] = mustLink(g, ft.tors[pod][t], ft.aggrs[pod][a])
			}
		}
		for a := 0; a < half; a++ {
			aggrIdx := pod*half + a
			for i := 0; i < half; i++ {
				ft.aggrCoreUp[aggrIdx*half+i] = mustLink(g, ft.aggrs[pod][a], ft.cores[a*half+i])
			}
		}
	}
	return ft, nil
}

// P returns the port count.
func (ft *FatTree) P() int { return ft.cfg.P }

// Cores lists the core switches.
func (ft *FatTree) Cores() []NodeID { return ft.cores }

// AggrsOfPod lists the aggregation switches of a pod.
func (ft *FatTree) AggrsOfPod(pod int) []NodeID { return ft.aggrs[pod] }

// ToRsOfPod lists the ToR switches of a pod.
func (ft *FatTree) ToRsOfPod(pod int) []NodeID { return ft.tors[pod] }

// NumPaths reports the equal-cost path count between two distinct ToRs:
// p^2/4 across pods (one per core), p/2 within a pod (one per aggr).
func (ft *FatTree) NumPaths(srcToR, dstToR NodeID) int {
	switch {
	case srcToR == dstToR:
		return 1
	case ft.g.node(srcToR).Pod == ft.g.node(dstToR).Pod:
		return ft.cfg.P / 2
	default:
		return ft.cfg.P * ft.cfg.P / 4
	}
}

// PathSet implements Network. Path i is pinned to buildPaths order:
// intra-pod path i goes via aggr i of the pod; inter-pod path i goes via
// core i, whose aggr on either side is the core's group i/(p/2).
func (ft *FatTree) PathSet(srcToR, dstToR NodeID) PathSet {
	return PathSet{r: ft, src: srcToR, dst: dstToR, n: int32(ft.NumPaths(srcToR, dstToR))}
}

// appendPathLinks implements PathProvider.
func (ft *FatTree) appendPathLinks(src, dst NodeID, i int, buf []LinkID) []LinkID {
	g := ft.g
	half := ft.cfg.P / 2
	sn, dn := g.node(src), g.node(dst)
	if sn.Pod == dn.Pod {
		// Intra-pod: up to aggr i, down to the destination ToR.
		return append(buf,
			ft.torAggrUp[sn.Index*half+i],
			g.Reverse(ft.torAggrUp[dn.Index*half+i]))
	}
	// Inter-pod: core i lives in group i/half; both pods reach it through
	// their aggr of that group, at core offset i%half.
	group, off := i/half, i%half
	return append(buf,
		ft.torAggrUp[sn.Index*half+group],
		ft.aggrCoreUp[(sn.Pod*half+group)*half+off],
		g.Reverse(ft.aggrCoreUp[(dn.Pod*half+group)*half+off]),
		g.Reverse(ft.torAggrUp[dn.Index*half+group]))
}

// appendSwitches implements PathProvider: the source ToR and its pod's
// aggrs, plus every core and the destination pod's aggrs across pods.
// NewFatTree numbers the cores first, then pod by pod the aggrs before
// the ToRs, so appending in that order keeps IDs ascending.
func (ft *FatTree) appendSwitches(src, dst NodeID, buf []NodeID) []NodeID {
	sp, dp := ft.g.node(src).Pod, ft.g.node(dst).Pod
	if sp == dp {
		return append(append(buf, ft.aggrs[sp]...), src)
	}
	buf = append(buf, ft.cores...)
	if sp < dp {
		return append(append(append(buf, ft.aggrs[sp]...), src), ft.aggrs[dp]...)
	}
	return append(append(append(buf, ft.aggrs[dp]...), ft.aggrs[sp]...), src)
}

// pathVia implements PathProvider. Fat-tree labels are stored node names,
// so they never allocate.
func (ft *FatTree) pathVia(src, dst NodeID, i int) string {
	if ft.g.node(src).Pod == ft.g.node(dst).Pod {
		return ft.g.node(ft.aggrs[ft.g.node(src).Pod][i]).Name
	}
	return ft.g.node(ft.cores[i]).Name
}

// buildPaths enumerates the paths from srcToR to dstToR by walking the
// graph, independently of the index tables PathSet decodes: the link
// sequences and their Via labels, in PathSet order. Inter-pod paths are
// labeled by core switch ("core1".."coreN" as in the paper's Figure 1);
// intra-pod paths by aggregation switch. It is the oracle
// pathset_test.go checks PathSet against.
func (ft *FatTree) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	if srcToR == dstToR {
		return [][]LinkID{nil}, []string{"direct"}
	}
	g := ft.g
	half := ft.cfg.P / 2
	srcPod := g.Node(srcToR).Pod
	dstPod := g.Node(dstToR).Pod
	var links [][]LinkID
	var vias []string
	if srcPod == dstPod {
		for a := 0; a < half; a++ {
			aggr := ft.aggrs[srcPod][a]
			links = append(links, []LinkID{mustLink(g, srcToR, aggr), mustLink(g, aggr, dstToR)})
			vias = append(vias, g.Node(aggr).Name)
		}
		return links, vias
	}
	for c, core := range ft.cores {
		group := c / half
		up := ft.aggrs[srcPod][group]
		down := ft.aggrs[dstPod][group]
		links = append(links, []LinkID{
			mustLink(g, srcToR, up),
			mustLink(g, up, core),
			mustLink(g, core, down),
			mustLink(g, down, dstToR),
		})
		vias = append(vias, g.Node(core).Name)
	}
	return links, vias
}
