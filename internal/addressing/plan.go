package addressing

import (
	"fmt"
	"sort"

	"dard/internal/topology"
)

// Assignment is one address (or prefix) a device received along one
// downward allocation chain from a root switch.
type Assignment struct {
	// Prefix is the allocated prefix. For hosts Len == Groups, i.e. a
	// full address.
	Prefix Prefix
	// Chain is the allocation path from the root down to (and including)
	// this device.
	Chain []topology.NodeID
	// Parent is the upstream device that allocated this prefix; -1 for
	// roots.
	Parent topology.NodeID
}

// Addr returns the full address of a host assignment.
func (a Assignment) Addr() Address { return a.Prefix.Addr }

// Root returns the tree root of the assignment's chain.
func (a Assignment) Root() topology.NodeID { return a.Chain[0] }

// Plan is the complete prefix allocation for a topology plus the derived
// per-switch uphill and downhill tables.
type Plan struct {
	net    topology.Network
	addrs  map[topology.NodeID][]Assignment
	tables map[topology.NodeID]*Tables
}

// tierRank orders node kinds top-down so allocation knows which neighbors
// are downstream.
func tierRank(k topology.NodeKind) int {
	switch k {
	case topology.Core:
		return 3
	case topology.Aggr:
		return 2
	case topology.ToR:
		return 1
	default:
		return 0
	}
}

// Build allocates prefixes over the given multi-rooted topology following
// §2.3: each root r (1-based index) owns prefix (r,0,0,0)/1 and every
// device allocates nonoverlapping subdivisions to its downstream neighbors
// keyed by 1-based port index. It also constructs every switch's uphill
// and downhill tables.
func Build(net topology.Network) (*Plan, error) {
	g := net.Graph()
	p := &Plan{
		net:    net,
		addrs:  make(map[topology.NodeID][]Assignment),
		tables: make(map[topology.NodeID]*Tables),
	}
	roots := g.NodesOfKind(topology.Core)
	if len(roots) == 0 {
		return nil, fmt.Errorf("topology %s has no root switches", net.Name())
	}
	for i, root := range roots {
		rp := Prefix{Len: 1}
		rp.Addr[0] = uint16(i + 1)
		asg := Assignment{Prefix: rp, Chain: []topology.NodeID{root}, Parent: -1}
		p.addrs[root] = append(p.addrs[root], asg)
		if err := p.allocate(root, asg); err != nil {
			return nil, fmt.Errorf("allocating tree %d rooted at %s: %w", i+1, g.Node(root).Name, err)
		}
	}
	p.sortTables()
	return p, nil
}

// allocate recursively subdivides the prefix held by `from` (assignment
// asg) among its downstream neighbors.
func (p *Plan) allocate(from topology.NodeID, asg Assignment) error {
	g := p.net.Graph()
	rank := tierRank(g.Node(from).Kind)
	port := 0
	for _, l := range g.Out(from) {
		child := g.Link(l).To
		if tierRank(g.Node(child).Kind) >= rank {
			continue // upstream or same-tier neighbor
		}
		port++
		sub, err := asg.Prefix.Extend(uint16(port))
		if err != nil {
			return fmt.Errorf("subdividing %v at %s: %w", asg.Prefix, g.Node(from).Name, err)
		}
		chain := make([]topology.NodeID, len(asg.Chain)+1)
		copy(chain, asg.Chain)
		chain[len(asg.Chain)] = child
		childAsg := Assignment{Prefix: sub, Chain: chain, Parent: from}
		p.addrs[child] = append(p.addrs[child], childAsg)

		// The parent's downhill table routes the allocated prefix to the
		// child; the child's uphill table routes the parent's own prefix
		// back up (§2.3, Table 2).
		p.switchTables(from).Downhill = appendEntry(p.switchTables(from).Downhill, Entry{Prefix: sub, Link: l})
		if g.Node(child).Kind != topology.Host {
			p.switchTables(child).Uphill = appendEntry(p.switchTables(child).Uphill, Entry{Prefix: asg.Prefix, Link: g.Reverse(l)})
		}
		if g.Node(child).Kind != topology.Host {
			if err := p.allocate(child, childAsg); err != nil {
				return err
			}
		}
	}
	if port == 0 && g.Node(from).Kind != topology.Host {
		return fmt.Errorf("switch %s has no downstream neighbors", g.Node(from).Name)
	}
	return nil
}

func (p *Plan) switchTables(n topology.NodeID) *Tables {
	t, ok := p.tables[n]
	if !ok {
		t = &Tables{}
		p.tables[n] = t
	}
	return t
}

func (p *Plan) sortTables() {
	for _, t := range p.tables {
		t.sort()
	}
}

// Network returns the topology the plan was built for.
func (p *Plan) Network() topology.Network { return p.net }

// Assignments returns every assignment of a device, in allocation order.
// The slice is shared; callers must not modify it.
func (p *Plan) Assignments(n topology.NodeID) []Assignment { return p.addrs[n] }

// TablesOf returns a switch's uphill/downhill tables (nil for hosts).
func (p *Plan) TablesOf(n topology.NodeID) *Tables { return p.tables[n] }

// AddressesOf returns every full address of a host, sorted.
func (p *Plan) AddressesOf(host topology.NodeID) []Address {
	asgs := p.addrs[host]
	res := make([]Address, len(asgs))
	for i, a := range asgs {
		res[i] = a.Addr()
	}
	sort.Slice(res, func(i, j int) bool {
		for k := 0; k < Groups; k++ {
			if res[i][k] != res[j][k] {
				return res[i][k] < res[j][k]
			}
		}
		return false
	})
	return res
}

// PathAddresses returns the (source, destination) address pair that
// encodes path i of ps, the ToR-to-ToR path set of a flow from srcHost to
// dstHost: the source address whose allocation chain climbs exactly the
// path's uphill segment, and the destination address whose chain
// descends exactly the downhill segment (§2.3).
func (p *Plan) PathAddresses(srcHost, dstHost topology.NodeID, ps topology.PathSet, i int) (src, dst Address, err error) {
	g := p.net.Graph()
	srcToR := p.net.ToROf(srcHost)
	dstToR := p.net.ToROf(dstHost)
	links := ps.AppendLinks(i, nil)

	if len(links) == 0 {
		// Same-ToR: any tree works as long as both pick the same chain
		// through the shared ToR; use each host's first assignment.
		sa, da := p.addrs[srcHost], p.addrs[dstHost]
		if len(sa) == 0 || len(da) == 0 {
			return src, dst, fmt.Errorf("host without addresses")
		}
		return sa[0].Addr(), da[0].Addr(), nil
	}

	// Split the path at its apex (the root switch).
	apex := -1
	for i, l := range links {
		if g.Node(g.Link(l).To).Kind == topology.Core {
			apex = i
			break
		}
	}
	var upChain, downChain []topology.NodeID
	if apex < 0 {
		// Intra-pod path peaking at an aggregation switch: the shared
		// aggr determines both chains under any core above it. Find a
		// source assignment whose chain passes through (aggr, srcToR)
		// and a destination assignment through (aggr, dstToR) with the
		// same root.
		aggr := g.Link(links[0]).To
		return p.matchViaAggr(srcHost, dstHost, aggr, srcToR, dstToR)
	}
	root := g.Link(links[apex]).To
	// Uphill chain: root, then the nodes walked upward reversed.
	upChain = append(upChain, root)
	for i := apex; i >= 0; i-- {
		upChain = append(upChain, g.Link(links[i]).From)
	}
	upChain = append(upChain, srcHost)
	// Downhill chain: root, then nodes walked downward.
	downChain = append(downChain, root)
	for i := apex + 1; i < len(links); i++ {
		downChain = append(downChain, g.Link(links[i]).To)
	}
	downChain = append(downChain, dstHost)

	srcAsg, ok := p.findByChain(srcHost, upChain)
	if !ok {
		return src, dst, fmt.Errorf("no source address for chain %v on path %q", upChain, ps.Via(i))
	}
	dstAsg, ok := p.findByChain(dstHost, downChain)
	if !ok {
		return src, dst, fmt.Errorf("no destination address for chain %v on path %q", downChain, ps.Via(i))
	}
	return srcAsg.Addr(), dstAsg.Addr(), nil
}

func (p *Plan) matchViaAggr(srcHost, dstHost, aggr, srcToR, dstToR topology.NodeID) (src, dst Address, err error) {
	for _, sa := range p.addrs[srcHost] {
		if len(sa.Chain) < 3 || sa.Chain[1] != aggr || sa.Chain[2] != srcToR {
			continue
		}
		for _, da := range p.addrs[dstHost] {
			if da.Chain[0] == sa.Chain[0] && len(da.Chain) >= 3 && da.Chain[1] == aggr && da.Chain[2] == dstToR {
				return sa.Addr(), da.Addr(), nil
			}
		}
	}
	return src, dst, fmt.Errorf("no address pair via aggregation switch %d", aggr)
}

func (p *Plan) findByChain(host topology.NodeID, chain []topology.NodeID) (Assignment, bool) {
	for _, a := range p.addrs[host] {
		if chainEqual(a.Chain, chain) {
			return a, true
		}
	}
	return Assignment{}, false
}

func chainEqual(a, b []topology.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
