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
// the top, two aggregation switches per pod, dual-homed access switches.
type ThreeTier struct {
	*base
	cfg ThreeTierConfig

	cores []NodeID
	// aggrs[pod] holds the two aggregation switches of the pod.
	aggrs [][2]NodeID
	// access[pod][t] is access switch t of the pod.
	access [][]NodeID

	// Uplink index tables backing PathSet; downlinks are the graph's
	// Reverse of the same entries.
	//
	// accAggrUp[accIdx*2 + j] is access switch accIdx -> aggr j of its pod.
	accAggrUp []LinkID
	// aggrCoreUp[aggrIdx*C + c] is aggr aggrIdx -> core c.
	aggrCoreUp []LinkID
}

var _ Network = (*ThreeTier)(nil)

// NewThreeTier builds the oversubscribed 8-core-3-tier topology.
func NewThreeTier(cfg ThreeTierConfig) (*ThreeTier, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("three-tier config: %w", err)
	}
	aggrs := 2 * cfg.NumPods
	access := cfg.NumPods * cfg.AccessPerPod
	hosts := access * cfg.HostsPerAccess
	// Cores, aggrs, access switches and hosts; aggr-core, two uplinks
	// per access switch and host cables.
	g := newGraph(cfg.NumCores+aggrs+access+hosts, aggrs*cfg.NumCores+2*access+hosts)
	tt := &ThreeTier{
		base: newBase(cfg.Name(), g, hosts),
		cfg:  cfg,
	}

	tt.cores = make([]NodeID, cfg.NumCores)
	for c := range tt.cores {
		tt.cores[c] = g.AddNode(Core, fmt.Sprintf("core%d", c+1), -1, c)
	}
	tt.aggrs = make([][2]NodeID, cfg.NumPods)
	tt.access = make([][]NodeID, cfg.NumPods)
	hostIdx := 0
	accIdx := 0
	for pod := 0; pod < cfg.NumPods; pod++ {
		for a := 0; a < 2; a++ {
			aggr := g.AddNode(Aggr, fmt.Sprintf("aggr%d_%d", pod+1, a+1), pod, pod*2+a)
			tt.aggrs[pod][a] = aggr
			for _, core := range tt.cores {
				g.AddDuplex(aggr, core, cfg.AggrUplink, cfg.LinkDelay)
			}
		}
		tt.access[pod] = make([]NodeID, cfg.AccessPerPod)
		for t := 0; t < cfg.AccessPerPod; t++ {
			acc := g.AddNode(ToR, fmt.Sprintf("acc%d_%d", pod+1, t+1), pod, accIdx)
			accIdx++
			tt.access[pod][t] = acc
			g.AddDuplex(acc, tt.aggrs[pod][0], cfg.AccessUplink, cfg.LinkDelay)
			g.AddDuplex(acc, tt.aggrs[pod][1], cfg.AccessUplink, cfg.LinkDelay)
			for h := 0; h < cfg.HostsPerAccess; h++ {
				hostIdx++
				tt.attachHost(fmt.Sprintf("E%d", hostIdx), pod, hostIdx-1, acc,
					cfg.HostCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("three-tier construction: %w", err)
	}
	tt.accAggrUp = make([]LinkID, accIdx*2)
	tt.aggrCoreUp = make([]LinkID, cfg.NumPods*2*cfg.NumCores)
	for pod := 0; pod < cfg.NumPods; pod++ {
		for _, acc := range tt.access[pod] {
			ai := g.Node(acc).Index
			tt.accAggrUp[ai*2] = mustLink(g, acc, tt.aggrs[pod][0])
			tt.accAggrUp[ai*2+1] = mustLink(g, acc, tt.aggrs[pod][1])
		}
		for a := 0; a < 2; a++ {
			aggrIdx := pod*2 + a
			for c, core := range tt.cores {
				tt.aggrCoreUp[aggrIdx*cfg.NumCores+c] = mustLink(g, tt.aggrs[pod][a], core)
			}
		}
	}
	return tt, nil
}

// Cores lists the core switches.
func (tt *ThreeTier) Cores() []NodeID { return tt.cores }

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

// PathSet implements Network. Cross-pod path i decodes in buildPaths
// order as the (uphill aggr j, core c, downhill aggr k) triple with
// i = j*(C*2) + c*2 + k; intra-pod path i goes via shared aggr i.
func (tt *ThreeTier) PathSet(srcToR, dstToR NodeID) PathSet {
	n := 1
	if srcToR != dstToR {
		if tt.g.node(srcToR).Pod == tt.g.node(dstToR).Pod {
			n = 2
		} else {
			n = 4 * tt.cfg.NumCores
		}
	}
	return PathSet{r: tt, src: srcToR, dst: dstToR, n: int32(n)}
}

// appendPathLinks implements PathProvider.
func (tt *ThreeTier) appendPathLinks(src, dst NodeID, i int, buf []LinkID) []LinkID {
	g := tt.g
	sn, dn := g.node(src), g.node(dst)
	if sn.Pod == dn.Pod {
		return append(buf,
			tt.accAggrUp[sn.Index*2+i],
			g.Reverse(tt.accAggrUp[dn.Index*2+i]))
	}
	nc := tt.cfg.NumCores
	j, rem := i/(nc*2), i%(nc*2)
	c, k := rem/2, rem%2
	return append(buf,
		tt.accAggrUp[sn.Index*2+j],
		tt.aggrCoreUp[(sn.Pod*2+j)*nc+c],
		g.Reverse(tt.aggrCoreUp[(dn.Pod*2+k)*nc+c]),
		g.Reverse(tt.accAggrUp[dn.Index*2+k]))
}

// appendSwitches implements PathProvider: the source access switch and
// its pod's aggrs, plus every core and the destination pod's aggrs
// across pods. NewThreeTier numbers the cores first, then pod by pod
// the aggrs before the access switches, so appending in that order
// keeps IDs ascending.
func (tt *ThreeTier) appendSwitches(src, dst NodeID, buf []NodeID) []NodeID {
	sp, dp := tt.g.node(src).Pod, tt.g.node(dst).Pod
	if sp == dp {
		return append(append(buf, tt.aggrs[sp][:]...), src)
	}
	buf = append(buf, tt.cores...)
	if sp < dp {
		return append(append(append(buf, tt.aggrs[sp][:]...), src), tt.aggrs[dp][:]...)
	}
	return append(append(append(buf, tt.aggrs[dp][:]...), tt.aggrs[sp][:]...), src)
}

// pathVia implements PathProvider. Cross-pod labels are joined on
// demand; they exist only for traces and display.
func (tt *ThreeTier) pathVia(src, dst NodeID, i int) string {
	g := tt.g
	sn, dn := g.node(src), g.node(dst)
	if sn.Pod == dn.Pod {
		return g.node(tt.aggrs[sn.Pod][i]).Name
	}
	nc := tt.cfg.NumCores
	j, rem := i/(nc*2), i%(nc*2)
	c, k := rem/2, rem%2
	return joinVia(
		g.node(tt.aggrs[sn.Pod][j]).Name,
		g.node(tt.cores[c]).Name,
		g.node(tt.aggrs[dn.Pod][k]).Name)
}

// buildPaths enumerates the paths from srcToR to dstToR by walking the
// graph, independently of the index tables PathSet decodes: the link
// sequences and their Via labels, in PathSet order. Cross-pod paths are
// labeled "aggrU>coreC>aggrD"; intra-pod paths by the shared aggregation
// switch. It is the oracle pathset_test.go checks PathSet against.
func (tt *ThreeTier) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	if srcToR == dstToR {
		return [][]LinkID{nil}, []string{"direct"}
	}
	g := tt.g
	srcPod := g.Node(srcToR).Pod
	dstPod := g.Node(dstToR).Pod
	var links [][]LinkID
	var vias []string
	if srcPod == dstPod {
		for _, aggr := range tt.aggrs[srcPod] {
			links = append(links, []LinkID{mustLink(g, srcToR, aggr), mustLink(g, aggr, dstToR)})
			vias = append(vias, g.Node(aggr).Name)
		}
		return links, vias
	}
	for _, up := range tt.aggrs[srcPod] {
		for _, core := range tt.cores {
			for _, down := range tt.aggrs[dstPod] {
				links = append(links, []LinkID{
					mustLink(g, srcToR, up),
					mustLink(g, up, core),
					mustLink(g, core, down),
					mustLink(g, down, dstToR),
				})
				vias = append(vias, joinVia(g.Node(up).Name, g.Node(core).Name, g.Node(down).Name))
			}
		}
	}
	return links, vias
}
