package topology

import (
	"fmt"

	"dard/internal/fpcmp"
)

// DCellConfig parameterizes a DCell (Guo et al., SIGCOMM 2008): a
// recursively defined server-centric fabric. A DCell_0 is n servers on
// a mini-switch; a DCell_l is t_{l-1}+1 DCell_{l-1} subcells, with one
// level-l link between every subcell pair, so t_l = t_{l-1}*(t_{l-1}+1)
// servers.
type DCellConfig struct {
	// N is the number of servers per DCell_0; must be >= 2.
	N int
	// Level is the recursion depth; 0 builds a single DCell_0.
	Level int
	// LinkCapacity is the bandwidth of every link in bits per second.
	// Defaults to 1 Gbps.
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay in seconds. Defaults to
	// 0.1 ms.
	LinkDelay float64
}

// dcellMaxServers caps the doubly-exponential t_l growth: n=4, l=2 is
// already 420 servers and n=5, l=2 is 930; the cap keeps hostile fuzz
// parameters from asking for millions of nodes.
const dcellMaxServers = 4096

// sizes returns t_0..t_Level, or an ErrConfig error when the total
// server count exceeds the cap.
func (c *DCellConfig) sizes() ([]int, error) {
	t := make([]int, c.Level+1)
	t[0] = c.N
	for l := 1; l <= c.Level; l++ {
		if t[l-1] > dcellMaxServers {
			break
		}
		t[l] = t[l-1] * (t[l-1] + 1)
	}
	if t[c.Level] == 0 || t[c.Level] > dcellMaxServers {
		return nil, fmt.Errorf("%w: dcell(n=%d,l=%d) exceeds the %d-server cap",
			ErrConfig, c.N, c.Level, dcellMaxServers)
	}
	return t, nil
}

// Name renders the name the built DCell carries, e.g. "dcell(n=3,l=1)".
func (c DCellConfig) Name() string { return fmt.Sprintf("dcell(n=%d,l=%d)", c.N, c.Level) }

// Build constructs the DCell.
func (c DCellConfig) Build() (Network, error) { return NewDCell(c) }

func (c *DCellConfig) applyDefaults() error {
	if c.N < 2 {
		return fmt.Errorf("%w: dcell needs at least two servers per cell, got n=%d", ErrConfig, c.N)
	}
	if c.Level < 0 {
		return fmt.Errorf("%w: negative dcell level %d", ErrConfig, c.Level)
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
	return nil
}

// DCell is a k-level DCell. Each server is modeled as a Router node (a
// DCell server forwards traffic, so it is the attachment switch of its
// one host), each DCell_0 gets a CellSwitch, and path sets follow the
// canonical DCellRouting plus one proxy detour per third subcell at the
// pair's lowest common level.
type DCell struct {
	*base
	cfg DCellConfig

	// t[l] is the number of servers in a DCell_l.
	t []int
	// servers[id] is the Router node of server id; id is also Node.Index.
	servers []NodeID
	// switches[c] is the mini-switch of DCell_0 instance c = id/n.
	switches []NodeID
	sr       *sourceRouted
}

var _ Network = (*DCell)(nil)

// NewDCell builds a DCell.
func NewDCell(cfg DCellConfig) (*DCell, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("dcell config: %w", err)
	}
	t, err := cfg.sizes()
	if err != nil {
		return nil, fmt.Errorf("dcell config: %w", err)
	}
	total := t[cfg.Level]
	cells := total / cfg.N
	// Servers, cell switches and hosts; server-switch cables, total/2
	// cables per level (each DCell_l instance of t_l servers joins its
	// subcells pairwise with t_l/2 of them) and host cables.
	g := newGraph(2*total+cells, 2*total+cfg.Level*total/2)
	dc := &DCell{
		base: newBase(cfg.Name(), g, total),
		cfg:  cfg,
		t:    t,
	}
	dc.noun = "server"

	// Pod is the top-level subcell, so workload layout spreads across the
	// coarsest partition; a single DCell_0 is one pod.
	podSize := total
	if cfg.Level > 0 {
		podSize = t[cfg.Level-1]
	}
	dc.servers = make([]NodeID, total)
	for id := 0; id < total; id++ {
		dc.servers[id] = g.AddNode(Router, fmt.Sprintf("s%d", id), id/podSize, id)
	}
	dc.switches = make([]NodeID, cells)
	for c := 0; c < cells; c++ {
		dc.switches[c] = g.AddNode(CellSwitch, fmt.Sprintf("sw%d", c), (c*cfg.N)/podSize, c)
		for s := 0; s < cfg.N; s++ {
			g.AddDuplex(dc.servers[c*cfg.N+s], dc.switches[c], cfg.LinkCapacity, cfg.LinkDelay)
		}
	}
	// Level-l links: within each DCell_l instance, subcells a < b are
	// joined by the link (a, b-1) <-> (b, a) — server b-1 of subcell a to
	// server a of subcell b, ids relative to the instance.
	for l := 1; l <= cfg.Level; l++ {
		sub := t[l-1]
		for base := 0; base < total; base += t[l] {
			for a := 0; a <= sub; a++ {
				for b := a + 1; b <= sub; b++ {
					g.AddDuplex(dc.servers[base+a*sub+(b-1)], dc.servers[base+b*sub+a],
						cfg.LinkCapacity, cfg.LinkDelay)
				}
			}
		}
	}
	hostIdx := 0
	for id := 0; id < total; id++ {
		hostIdx++
		dc.attachHost(fmt.Sprintf("E%d", hostIdx), id/podSize, hostIdx-1,
			dc.servers[id], cfg.LinkCapacity, cfg.LinkDelay)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dcell construction: %w", err)
	}
	dc.sr = newSourceRouted(g, dc.buildPathSet)
	return dc, nil
}

// NumServers reports the total server count t_Level.
func (dc *DCell) NumServers() int { return dc.t[dc.cfg.Level] }

// commonLevel returns the smallest level l with u and v in the same
// DCell_l instance; 0 means the same DCell_0.
func (dc *DCell) commonLevel(u, v int) int {
	for l := 0; ; l++ {
		if u/dc.t[l] == v/dc.t[l] {
			return l
		}
	}
}

// crossEndpoints returns the global server ids of the level-l link
// joining subcells a and b of the instance at base: the endpoint in a
// first, the endpoint in b second.
func (dc *DCell) crossEndpoints(base, l, a, b int) (int, int) {
	sub := dc.t[l-1]
	if a < b {
		return base + a*sub + (b - 1), base + b*sub + a
	}
	return base + a*sub + b, base + b*sub + (a - 1)
}

// route appends the canonical DCellRouting links from server u to
// server v: recurse to the level-l link between their subcells at the
// lowest common level, crossing each subcell boundary exactly once, so
// the walk is loop-free.
func (dc *DCell) route(buf []LinkID, u, v int) []LinkID {
	if u == v {
		return buf
	}
	g := dc.g
	if u/dc.cfg.N == v/dc.cfg.N {
		sw := dc.switches[u/dc.cfg.N]
		return append(buf, mustLink(g, dc.servers[u], sw), mustLink(g, sw, dc.servers[v]))
	}
	l := dc.commonLevel(u, v)
	base := (u / dc.t[l]) * dc.t[l]
	sub := dc.t[l-1]
	n1, n2 := dc.crossEndpoints(base, l, (u-base)/sub, (v-base)/sub)
	buf = dc.route(buf, u, n1)
	buf = append(buf, mustLink(g, dc.servers[n1], dc.servers[n2]))
	return dc.route(buf, n2, v)
}

// NumPaths reports the path-set size between two distinct servers: one
// when they share a DCell_0 (via the mini-switch), else t_{L-1} at
// lowest common level L (the canonical route plus one proxy detour per
// third subcell).
func (dc *DCell) NumPaths(src, dst NodeID) int {
	if src == dst {
		return 1
	}
	l := dc.commonLevel(dc.g.Node(src).Index, dc.g.Node(dst).Index)
	if l == 0 {
		return 1
	}
	return dc.t[l-1]
}

// PathSet implements Network.
func (dc *DCell) PathSet(src, dst NodeID) PathSet {
	return dc.sr.pathSet(src, dst)
}

// buildPathSet enumerates one pair's paths in pinned order; src and dst
// are distinct servers. Same DCell_0: the single mini-switch path,
// labeled by the switch. Lowest common level L >= 1 with src in subcell
// a and dst in subcell b: the canonical route first ("direct"), then a
// proxy detour through each third subcell c in index order ("via-c%d"),
// entering c over the a<->c link and leaving over the c<->b link. Each
// detour's segments stay in the pairwise-distinct subcells a, c, b, so
// every path is loop-free and uses a distinct level-L link pair.
func (dc *DCell) buildPathSet(src, dst NodeID) ([][]LinkID, []string) {
	u, v := dc.g.Node(src).Index, dc.g.Node(dst).Index
	l := dc.commonLevel(u, v)
	if l == 0 {
		sw := dc.switches[u/dc.cfg.N]
		return [][]LinkID{dc.route(nil, u, v)}, []string{dc.g.Node(sw).Name}
	}
	base := (u / dc.t[l]) * dc.t[l]
	sub := dc.t[l-1]
	a, b := (u-base)/sub, (v-base)/sub
	links := make([][]LinkID, 0, sub)
	vias := make([]string, 0, sub)
	links = append(links, dc.route(nil, u, v))
	vias = append(vias, "direct")
	for c := 0; c <= sub; c++ {
		if c == a || c == b {
			continue
		}
		x1, x2 := dc.crossEndpoints(base, l, a, c)
		y1, y2 := dc.crossEndpoints(base, l, c, b)
		p := dc.route(nil, u, x1)
		p = append(p, mustLink(dc.g, dc.servers[x1], dc.servers[x2]))
		p = dc.route(p, x2, y1)
		p = append(p, mustLink(dc.g, dc.servers[y1], dc.servers[y2]))
		p = dc.route(p, y2, v)
		links = append(links, p)
		vias = append(vias, fmt.Sprintf("via-c%d", c))
	}
	return links, vias
}
