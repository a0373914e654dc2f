// Package topology builds the datacenter topologies the reproduction
// evaluates on: the paper's multi-rooted trees (fat-tree, VL2-style
// Clos, a traditional oversubscribed 8-core-3-tier network) plus the
// non-tree families (dragonfly, DCell) the path-provider abstraction
// unlocked. A topology is an explicit directed graph of nodes (hosts
// and switches) and capacitated links, plus the equal-cost path sets
// between host-attachment switches that DARD's monitors track.
package topology

import (
	"errors"
	"fmt"
	"sort"
)

// ErrConfig marks an invalid topology configuration. Every family's
// constructor wraps parameter rejections with it, so callers (and
// FuzzTopologyBuild) can tell hostile input from a construction bug.
var ErrConfig = errors.New("invalid topology configuration")

// NodeKind classifies a node by its role in the topology.
type NodeKind int

// Node kinds. The first four are the tree tiers, bottom first; Router
// is a dragonfly router or DCell server-NIC (the attachment switch of
// the non-tree families), and CellSwitch is a DCell cell's mini-switch.
const (
	Host NodeKind = iota + 1
	ToR
	Aggr
	Core
	Router
	CellSwitch
)

// String returns the lower-case tier name.
func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case ToR:
		return "tor"
	case Aggr:
		return "aggr"
	case Core:
		return "core"
	case Router:
		return "router"
	case CellSwitch:
		return "cellsw"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NodeID identifies a node within one Graph.
type NodeID int32

// LinkID identifies a directed link within one Graph.
type LinkID int32

// Node is a host or switch.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Name is a human-readable label such as "aggr1" or "E32", following
	// the paper's figures where possible.
	Name string
	// Pod is the pod index for nodes that belong to a pod, -1 otherwise
	// (cores, and intermediate switches in a Clos network).
	Pod int
	// Index is the node's index within its tier (0-based, global).
	Index int
}

// Link is one direction of a cable. Links are always created in pairs; the
// reverse direction is available via Graph.Reverse.
type Link struct {
	ID   LinkID
	From NodeID
	To   NodeID
	// Capacity is the link bandwidth in bits per second.
	Capacity float64
	// Delay is the one-way propagation delay in seconds.
	Delay float64
}

// LinkEvent schedules a link failure or repair during a run: at time
// At, the directed link fails (Down) or returns to service. Both
// directions of a duplex link are separate events. Either engine takes
// the same schedule. The flow engine drops a failed link's capacity to
// zero. The packet engine flushes its queue and drops arrivals. Both
// report zero bandwidth for it to switch-state queries, which is how
// DARD monitors learn of the failure.
type LinkEvent struct {
	At   float64
	Link LinkID
	Down bool
}

// Graph is a directed multigraph of nodes and links. The zero value is
// empty and ready to use.
type Graph struct {
	nodes []Node
	links []Link
	// out and in list each node's leaving and entering links, indexed by
	// NodeID and grown with nodes.
	out, in [][]LinkID
	reverse []LinkID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return newGraph(0, 0) }

// newGraph returns an empty graph with room for nodes nodes and duplex
// cables, so a family that knows its size builds without regrowing the
// node and link tables.
func newGraph(nodes, duplex int) *Graph {
	return &Graph{
		nodes:   make([]Node, 0, nodes),
		links:   make([]Link, 0, 2*duplex),
		out:     make([][]LinkID, 0, nodes),
		in:      make([][]LinkID, 0, nodes),
		reverse: make([]LinkID, 0, 2*duplex),
	}
}

// AddNode appends a node and returns its ID. Pod should be -1 for nodes
// outside any pod.
func (g *Graph) AddNode(kind NodeKind, name string, pod, index int) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name, Pod: pod, Index: index})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddDuplex adds a bidirectional link (two directed links with the same
// capacity and delay) between a and b, returning the a->b direction.
// Both must be nodes of g.
func (g *Graph) AddDuplex(a, b NodeID, capacity, delay float64) LinkID {
	ab := g.addLink(a, b, capacity, delay)
	ba := g.addLink(b, a, capacity, delay)
	g.reverse = append(g.reverse, ba, ab)
	return ab
}

func (g *Graph) addLink(from, to NodeID, capacity, delay float64) LinkID {
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, From: from, To: to, Capacity: capacity, Delay: delay})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// node returns the node with the given ID in place, for hot paths that
// read a field or two and should not copy the name.
func (g *Graph) node(id NodeID) *Node { return &g.nodes[id] }

// Link returns the directed link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Reverse returns the opposite direction of the given link.
func (g *Graph) Reverse(id LinkID) LinkID { return g.reverse[id] }

// Out returns the IDs of links leaving n, nil for an ID outside the
// graph. The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) Out(n NodeID) []LinkID { return linksOf(g.out, n) }

// In returns the IDs of links entering n, nil for an ID outside the
// graph. The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) In(n NodeID) []LinkID { return linksOf(g.in, n) }

func linksOf(adj [][]LinkID, n NodeID) []LinkID {
	if n < 0 || int(n) >= len(adj) {
		return nil
	}
	return adj[n]
}

// LinkBetween returns the directed link from a to b, if one exists. It
// scans a's leaving links, one per port of a; the topologies built here
// never have parallel links.
func (g *Graph) LinkBetween(a, b NodeID) (LinkID, bool) {
	for _, l := range g.Out(a) {
		if g.links[l].To == b {
			return l, true
		}
	}
	return 0, false
}

// Neighbors returns the nodes reachable over one outgoing link of n, in
// link-creation order.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	out := g.Out(n)
	res := make([]NodeID, len(out))
	for i, l := range out {
		res[i] = g.links[l].To
	}
	return res
}

// NodesOfKind returns the IDs of all nodes of the given kind, ordered by
// tier index.
func (g *Graph) NodesOfKind(kind NodeKind) []NodeID {
	var res []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			res = append(res, n.ID)
		}
	}
	sort.Slice(res, func(i, j int) bool { return g.nodes[res[i]].Index < g.nodes[res[j]].Index })
	return res
}

// FindNode returns the node with the given name.
func (g *Graph) FindNode(name string) (Node, bool) {
	for _, n := range g.nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// IsSwitchLink reports whether the link connects two switches (i.e. neither
// endpoint is a host). DARD's BoNF metric only considers switch-switch
// links, because a flow cannot route around its first and last hop (§2.2).
func (g *Graph) IsSwitchLink(id LinkID) bool {
	l := g.links[id]
	return g.nodes[l.From].Kind != Host && g.nodes[l.To].Kind != Host
}

// Validate checks structural invariants: every link endpoint exists, every
// duplex pair matches, and every host has exactly one uplink.
func (g *Graph) Validate() error {
	for _, l := range g.links {
		if int(l.From) >= len(g.nodes) || int(l.To) >= len(g.nodes) {
			return fmt.Errorf("link %d references missing node", l.ID)
		}
		if l.Capacity <= 0 {
			return fmt.Errorf("link %d (%s->%s) has non-positive capacity",
				l.ID, g.nodes[l.From].Name, g.nodes[l.To].Name)
		}
		r := g.links[g.reverse[l.ID]]
		if r.From != l.To || r.To != l.From {
			return fmt.Errorf("link %d reverse mismatch", l.ID)
		}
	}
	for _, n := range g.nodes {
		if n.Kind == Host {
			if len(g.out[n.ID]) != 1 || len(g.in[n.ID]) != 1 {
				return fmt.Errorf("host %s must have exactly one duplex link, has %d out / %d in",
					n.Name, len(g.out[n.ID]), len(g.in[n.ID]))
			}
			if k := g.nodes[g.links[g.out[n.ID][0]].To].Kind; k != ToR && k != Router {
				return fmt.Errorf("host %s uplink reaches a %s, not an attachment switch (ToR or router)", n.Name, k)
			}
		}
	}
	return nil
}
