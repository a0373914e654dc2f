package topology

import (
	"fmt"

	"dard/internal/fpcmp"
)

// DragonflyConfig parameterizes a dragonfly (Kim et al., ISCA 2008) in
// the rail-aligned variant: g = a+1 groups of d routers, a full local
// mesh inside each group, and router i of every group connected to
// router i of every other group ("rail" i), so each router carries a
// global links and every group pair is joined by d rails.
type DragonflyConfig struct {
	// D is the number of routers per group; must be >= 1.
	D int
	// A is the number of global links per router; the topology has a+1
	// groups. Must be >= 1.
	A int
	// P is the number of hosts attached to each router; must be >= 1.
	P int
	// LinkCapacity is the bandwidth of every link in bits per second.
	// Defaults to 1 Gbps.
	LinkCapacity float64
	// LinkDelay is the one-way propagation delay in seconds. Defaults to
	// 0.1 ms.
	LinkDelay float64
}

func (c *DragonflyConfig) applyDefaults() error {
	if c.D < 1 {
		return fmt.Errorf("%w: dragonfly needs at least one router per group, got d=%d", ErrConfig, c.D)
	}
	if c.A < 1 {
		return fmt.Errorf("%w: dragonfly needs at least one global link per router, got a=%d", ErrConfig, c.A)
	}
	if c.P < 1 {
		return fmt.Errorf("%w: dragonfly needs at least one host per router, got p=%d", ErrConfig, c.P)
	}
	routers := (c.A + 1) * c.D
	if routers > 4096 {
		return fmt.Errorf("%w: dragonfly (a+1)*d = %d routers exceeds the 4096-router cap", ErrConfig, routers)
	}
	if routers*c.P > 65536 {
		return fmt.Errorf("%w: dragonfly (a+1)*d*p = %d hosts exceeds the 65536-host cap", ErrConfig, routers*c.P)
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

// Dragonfly is a rail-aligned dragonfly. Hosts attach to routers (the
// Router kind doubles as the attachment switch), groups play the role
// of pods for workload layout, and path sets mix minimal routes with
// Valiant-style detours through an intermediate group.
type Dragonfly struct {
	*base
	cfg DragonflyConfig

	// routers[g][r] is router r of group g.
	routers [][]NodeID
	sr      *sourceRouted
}

var _ Network = (*Dragonfly)(nil)

// NewDragonfly builds a dragonfly.
func NewDragonfly(cfg DragonflyConfig) (*Dragonfly, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, fmt.Errorf("dragonfly config: %w", err)
	}
	g := NewGraph()
	df := &Dragonfly{
		base: newBase(fmt.Sprintf("dragonfly(d=%d,a=%d,p=%d)", cfg.D, cfg.A, cfg.P), g),
		cfg:  cfg,
	}
	df.noun = "router"

	groups := cfg.A + 1
	df.routers = make([][]NodeID, groups)
	for grp := 0; grp < groups; grp++ {
		df.routers[grp] = make([]NodeID, cfg.D)
		for r := 0; r < cfg.D; r++ {
			df.routers[grp][r] = g.AddNode(Router,
				fmt.Sprintf("r%d_%d", grp+1, r+1), grp, grp*cfg.D+r)
		}
	}
	// Full local mesh within each group.
	for grp := 0; grp < groups; grp++ {
		for r := 0; r < cfg.D; r++ {
			for s := r + 1; s < cfg.D; s++ {
				g.AddDuplex(df.routers[grp][r], df.routers[grp][s], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	// Rails: router r of group g1 <-> router r of group g2, every pair.
	for g1 := 0; g1 < groups; g1++ {
		for g2 := g1 + 1; g2 < groups; g2++ {
			for r := 0; r < cfg.D; r++ {
				g.AddDuplex(df.routers[g1][r], df.routers[g2][r], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	hostIdx := 0
	for grp := 0; grp < groups; grp++ {
		for r := 0; r < cfg.D; r++ {
			for h := 0; h < cfg.P; h++ {
				hostIdx++
				df.attachHost(fmt.Sprintf("E%d", hostIdx), grp, hostIdx-1,
					df.routers[grp][r], cfg.LinkCapacity, cfg.LinkDelay)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dragonfly construction: %w", err)
	}
	df.sr = newSourceRouted(g, df.buildPathSet)
	return df, nil
}

// Groups reports the number of groups (a+1).
func (df *Dragonfly) Groups() int { return df.cfg.A + 1 }

// RoutersOfGroup lists the routers of a group.
func (df *Dragonfly) RoutersOfGroup(grp int) []NodeID { return df.routers[grp] }

// NumPaths reports the path-set size between two distinct routers: d-1
// intra-group (the direct local link plus a detour via each other
// router), d + (g-2) inter-group (one minimal route per rail plus a
// Valiant detour via each third group).
func (df *Dragonfly) NumPaths(src, dst NodeID) int {
	switch {
	case src == dst:
		return 1
	case df.g.Node(src).Pod == df.g.Node(dst).Pod:
		return df.cfg.D - 1
	default:
		return df.cfg.D + df.Groups() - 2
	}
}

// PathSet implements Network.
func (df *Dragonfly) PathSet(src, dst NodeID) PathSet {
	return df.sr.pathSet(src, dst)
}

// buildPathSet enumerates one pair's paths in pinned order; src and dst
// are distinct routers.
//
// Intra-group (src = (g,s), dst = (g,d)): path 0 is the direct local
// link ("local"); then one two-hop detour via each other router c of
// the group in index order (labeled by c's name).
//
// Inter-group (src = (gs,s), dst = (gd,d)): first the d minimal routes,
// one per rail t in index order — optional local hop to (gs,t), rail
// crossing to (gd,t), optional local hop to dst — labeled "rail<t>";
// then a Valiant-style detour via each third group k in index order,
// riding rail s into group k, a local hop (k,s)->(k,d) when s != d,
// and rail d onward to dst, labeled "via-g<k>". Every route's hops
// live in distinct (group, router) slots, so all paths are loop-free.
func (df *Dragonfly) buildPathSet(src, dst NodeID) ([][]LinkID, []string) {
	g := df.g
	d := df.cfg.D
	sn, dn := g.Node(src), g.Node(dst)
	gs, s := sn.Pod, sn.Index%d
	gd, dr := dn.Pod, dn.Index%d

	if gs == gd {
		links := make([][]LinkID, 0, d-1)
		vias := make([]string, 0, d-1)
		links = append(links, []LinkID{mustLink(g, src, dst)})
		vias = append(vias, "local")
		for c := 0; c < d; c++ {
			if c == s || c == dr {
				continue
			}
			mid := df.routers[gs][c]
			links = append(links, []LinkID{mustLink(g, src, mid), mustLink(g, mid, dst)})
			vias = append(vias, g.Node(mid).Name)
		}
		return links, vias
	}

	groups := df.Groups()
	links := make([][]LinkID, 0, d+groups-2)
	vias := make([]string, 0, d+groups-2)
	for t := 0; t < d; t++ {
		var p []LinkID
		cur := src
		if t != s {
			next := df.routers[gs][t]
			p = append(p, mustLink(g, cur, next))
			cur = next
		}
		next := df.routers[gd][t]
		p = append(p, mustLink(g, cur, next))
		cur = next
		if t != dr {
			p = append(p, mustLink(g, cur, dst))
		}
		links = append(links, p)
		vias = append(vias, fmt.Sprintf("rail%d", t+1))
	}
	for k := 0; k < groups; k++ {
		if k == gs || k == gd {
			continue
		}
		var p []LinkID
		cur := df.routers[k][s]
		p = append(p, mustLink(g, src, cur))
		if s != dr {
			next := df.routers[k][dr]
			p = append(p, mustLink(g, cur, next))
			cur = next
		}
		p = append(p, mustLink(g, cur, dst))
		links = append(links, p)
		vias = append(vias, fmt.Sprintf("via-g%d", k+1))
	}
	return links, vias
}
