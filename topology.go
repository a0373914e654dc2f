package dard

import (
	"cmp"
	"fmt"
	"strings"
	"sync"

	"dard/internal/addressing"
	"dard/internal/topology"
	"dard/internal/workload"
)

// TopologyKind selects a topology family: the paper's three
// multi-rooted trees, or one of the non-tree families the path-provider
// abstraction added.
type TopologyKind string

// Supported topology kinds.
const (
	// FatTree is a p-port fat-tree (§4.3.1).
	FatTree TopologyKind = "fattree"
	// Clos is a VL2-style Clos network (§4.3.2).
	Clos TopologyKind = "clos"
	// ThreeTier is the oversubscribed 8-core-3-tier network (§4.3.2).
	ThreeTier TopologyKind = "threetier"
	// Dragonfly is a rail-aligned dragonfly: a+1 groups of d routers,
	// full local meshes, d rails per group pair, minimal plus
	// Valiant-style path sets. Beyond the paper's evaluation.
	Dragonfly TopologyKind = "dragonfly"
	// DCell is a recursively defined server-centric DCell_l with
	// canonical plus proxy-detour path sets. Beyond the paper's
	// evaluation.
	DCell TopologyKind = "dcell"
)

// TopologySpec declares a topology to build. Zero fields take the
// paper's defaults. New fields extend checkpointed session specs
// backward-compatibly: absent fields decode as zero and keep their
// defaults.
type TopologySpec struct {
	// Kind picks the family; defaults to FatTree.
	Kind TopologyKind
	// P is the fat-tree port count (default 8).
	P int
	// D is the Clos D_I = D_A parameter (default 8), and the dragonfly
	// routers-per-group (default 4).
	D int
	// A is the dragonfly global-link count per router, giving a+1 groups
	// (default 3).
	A int
	// N is the DCell servers-per-cell parameter (default 3).
	N int
	// Level is the DCell recursion depth (default 1).
	Level int
	// HostsPerToR scales the edge down from the paper's full population
	// (0 keeps the family default); on a dragonfly it is the host count
	// per router (default 2).
	HostsPerToR int
	// LinkCapacity is the uniform link bandwidth in bits/s for fat-tree,
	// Clos, dragonfly, and DCell (default 1 Gbps; the three-tier family
	// has fixed oversubscribed capacities).
	LinkCapacity float64
	// LinkDelay is the per-link propagation delay in seconds (default
	// 0.1 ms).
	LinkDelay float64
}

// Topology is a built network plus its hierarchical addressing plan.
// The plan materializes one address per (host, tree root) — O(p^4)
// entries on a fat-tree — so it is built lazily on first use: scenario
// runs never touch it (simulation routes through the implicit path
// sets), and building it eagerly would dominate the memory footprint of
// large-scale runs.
type Topology struct {
	net    topology.Network
	layout *workload.Layout

	planOnce sync.Once
	plan     *addressing.Plan
	planErr  error
}

// Build constructs the topology. The addressing plan is deferred to the
// first facade call that renders addresses or tables.
func (spec TopologySpec) Build() (*Topology, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	net, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &Topology{net: net, layout: workload.NewLayout(net)}, nil
}

// networkConfig is one family's construction parameters
// (topology.FatTreeConfig and its siblings).
type networkConfig interface {
	// Name renders the name the built network carries.
	Name() string
	Build() (topology.Network, error)
}

// config resolves the spec's zero fields to the facade's defaults and
// returns the family's construction parameters. Build and the trace file
// name both read it, so a scenario that names its topology by spec and
// one that carries the built Topo name it alike.
func (spec TopologySpec) config() (networkConfig, error) {
	switch spec.Kind {
	case FatTree, "":
		return topology.FatTreeConfig{
			P:            cmp.Or(spec.P, 8),
			HostsPerToR:  spec.HostsPerToR,
			LinkCapacity: spec.LinkCapacity,
			LinkDelay:    spec.LinkDelay,
		}, nil
	case Clos:
		d := cmp.Or(spec.D, 8)
		return topology.ClosConfig{
			DI:           d,
			DA:           d,
			HostsPerToR:  spec.HostsPerToR,
			LinkCapacity: spec.LinkCapacity,
			LinkDelay:    spec.LinkDelay,
		}, nil
	case ThreeTier:
		return topology.ThreeTierConfig{
			HostsPerAccess: spec.HostsPerToR,
			LinkDelay:      spec.LinkDelay,
		}, nil
	case Dragonfly:
		return topology.DragonflyConfig{
			D:            cmp.Or(spec.D, 4),
			A:            cmp.Or(spec.A, 3),
			P:            cmp.Or(spec.HostsPerToR, 2),
			LinkCapacity: spec.LinkCapacity,
			LinkDelay:    spec.LinkDelay,
		}, nil
	case DCell:
		return topology.DCellConfig{
			N:            cmp.Or(spec.N, 3),
			Level:        cmp.Or(spec.Level, 1),
			LinkCapacity: spec.LinkCapacity,
			LinkDelay:    spec.LinkDelay,
		}, nil
	}
	return nil, fmt.Errorf("dard: unknown topology kind %q", spec.Kind)
}

// addressPlan builds the hierarchical addressing plan on first use;
// safe for concurrent callers.
func (t *Topology) addressPlan() (*addressing.Plan, error) {
	t.planOnce.Do(func() {
		plan, err := addressing.Build(t.net)
		if err != nil {
			t.planErr = fmt.Errorf("dard: addressing %s: %w", t.net.Name(), err)
			return
		}
		t.plan = plan
	})
	return t.plan, t.planErr
}

// Name returns the topology's descriptive name, e.g. "fattree(p=8)".
func (t *Topology) Name() string { return t.net.Name() }

// NumHosts reports the number of end hosts.
func (t *Topology) NumHosts() int { return len(t.net.Hosts()) }

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int { return t.net.Graph().NumNodes() - t.NumHosts() }

// NumPaths reports the number of equal-cost paths between the
// attachment switches (ToRs, dragonfly routers, DCell servers) of two
// hosts (by host name, e.g. "E1").
func (t *Topology) NumPaths(srcHost, dstHost string) (int, error) {
	s, err := t.host(srcHost)
	if err != nil {
		return 0, err
	}
	d, err := t.host(dstHost)
	if err != nil {
		return 0, err
	}
	return t.net.PathSet(t.net.ToROf(s), t.net.ToROf(d)).Len(), nil
}

// HostNames lists every host name in index order.
func (t *Topology) HostNames() []string {
	g := t.net.Graph()
	names := make([]string, 0, t.NumHosts())
	for _, h := range t.net.Hosts() {
		names = append(names, g.Node(h).Name)
	}
	return names
}

// HostAddresses returns the hierarchical addresses of a host in the
// paper's tuple notation, plus the IPv4 encoding when it fits the 6-bit
// packing.
func (t *Topology) HostAddresses(hostName string) ([]string, error) {
	h, err := t.host(hostName)
	if err != nil {
		return nil, err
	}
	plan, err := t.addressPlan()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, a := range plan.AddressesOf(h) {
		s := a.String()
		if ip, err := a.IPv4(); err == nil {
			s += " = " + ip
		}
		out = append(out, s)
	}
	return out, nil
}

// RoutingTables renders a switch's downhill and uphill tables in the
// style of the paper's Table 2.
func (t *Topology) RoutingTables(switchName string) (string, error) {
	n, ok := t.net.Graph().FindNode(switchName)
	if !ok {
		return "", fmt.Errorf("dard: unknown switch %q", switchName)
	}
	plan, err := t.addressPlan()
	if err != nil {
		return "", err
	}
	tables := plan.TablesOf(n.ID)
	if tables == nil {
		return "", fmt.Errorf("dard: %q has no routing tables (is it a host?)", switchName)
	}
	return fmt.Sprintf("%s (%s)\n%s", switchName, t.net.Name(), tables.Format(t.net.Graph())), nil
}

// FlowTables renders a switch's OpenFlow-style initialization program
// (§3.1): downhill rules in table 0 (destination-matched), uphill rules
// in table 1 (source-matched), longest prefixes first.
func (t *Topology) FlowTables(switchName string) (string, error) {
	n, ok := t.net.Graph().FindNode(switchName)
	if !ok {
		return "", fmt.Errorf("dard: unknown switch %q", switchName)
	}
	plan, err := t.addressPlan()
	if err != nil {
		return "", err
	}
	for _, prog := range plan.FlowTablePrograms() {
		if prog.Switch == switchName {
			return prog.String(), nil
		}
	}
	_ = n
	return "", fmt.Errorf("dard: %q has no flow tables (is it a host?)", switchName)
}

// TotalFlowRules counts the rules the one-time NOX-style initializer
// installs network-wide. It returns 0 if the addressing plan cannot be
// built (construction validates the topologies this facade offers, so
// that does not happen in practice).
func (t *Topology) TotalFlowRules() int {
	plan, err := t.addressPlan()
	if err != nil {
		return 0
	}
	return plan.TotalRules()
}

// PathsBetween describes the equal-cost paths between two hosts'
// attachment switches as hop sequences, one line per path.
func (t *Topology) PathsBetween(srcHost, dstHost string) (string, error) {
	s, err := t.host(srcHost)
	if err != nil {
		return "", err
	}
	d, err := t.host(dstHost)
	if err != nil {
		return "", err
	}
	g := t.net.Graph()
	var b strings.Builder
	ps := t.net.PathSet(t.net.ToROf(s), t.net.ToROf(d))
	var links []topology.LinkID
	for i := 0; i < ps.Len(); i++ {
		fmt.Fprintf(&b, "%-24s", ps.Via(i))
		links = ps.AppendLinks(i, links[:0])
		for j, l := range links {
			if j == 0 {
				b.WriteString(g.Node(g.Link(l).From).Name)
			}
			b.WriteString(" -> " + g.Node(g.Link(l).To).Name)
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

func (t *Topology) host(name string) (topology.NodeID, error) {
	n, ok := t.net.Graph().FindNode(name)
	if !ok {
		return 0, fmt.Errorf("dard: unknown host %q", name)
	}
	if n.Kind != topology.Host {
		// Speak the family's language: paths run between ToRs on the tree
		// families, routers on a dragonfly, servers on a DCell.
		return 0, fmt.Errorf("dard: %q is a %s, not a host; paths run between the %ss hosts attach to",
			name, n.Kind, t.net.AttachNoun())
	}
	return n.ID, nil
}
