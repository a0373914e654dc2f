package topology

import (
	"fmt"
	"strings"
)

// Network is the read side of a topology that schedulers and simulators
// consume: the graph, the host/attachment structure, and the equal-cost
// path sets between attachment switches.
type Network interface {
	// Name identifies the topology, e.g. "fattree(p=8)".
	Name() string
	// Graph exposes the node/link structure.
	Graph() *Graph
	// Hosts lists every host, ordered by host index. The slice is shared;
	// callers must not modify it.
	Hosts() []NodeID
	// ToROf returns the switch a host attaches to: a ToR on the tree
	// families, a dragonfly router or DCell server on the non-tree ones.
	ToROf(host NodeID) NodeID
	// AttachNoun is the family's term for the switches hosts attach to —
	// "ToR" for the tree families, "router" for dragonfly, "server" for
	// DCell — so diagnostics can speak the family's language.
	AttachNoun() string
	// PathSet returns the implicit equal-cost path set from srcToR to
	// dstToR. For srcToR == dstToR the set holds a single empty path.
	// The handle is a small value. The tree families back it with the
	// uplink tables of their shared up/down provider and store nothing
	// per pair; the non-tree families build each pair's entry once, on
	// first use.
	PathSet(srcToR, dstToR NodeID) PathSet
	// HostUplink returns the host->ToR link of a host.
	HostUplink(host NodeID) LinkID
	// HostDownlink returns the ToR->host link of a host.
	HostDownlink(host NodeID) LinkID
}

// hostAttachment records a host's duplex edge link.
type hostAttachment struct {
	tor  NodeID
	up   LinkID
	down LinkID
}

// base carries the structure shared by every concrete topology.
type base struct {
	name string
	// noun is the family's term for the attachment tier; newBase
	// defaults it to "ToR", non-tree families override it.
	noun   string
	g      *Graph
	hosts  []NodeID
	attach map[NodeID]hostAttachment
}

// newBase returns the shared state of a family with room for hosts
// hosts.
func newBase(name string, g *Graph, hosts int) *base {
	return &base{
		name:   name,
		noun:   "ToR",
		g:      g,
		hosts:  make([]NodeID, 0, hosts),
		attach: make(map[NodeID]hostAttachment, hosts),
	}
}

// attachHost creates a host node under the given ToR with a duplex link.
func (b *base) attachHost(name string, pod, index int, tor NodeID, capacity, delay float64) NodeID {
	h := b.g.AddNode(Host, name, pod, index)
	up := b.g.AddDuplex(h, tor, capacity, delay)
	b.hosts = append(b.hosts, h)
	b.attach[h] = hostAttachment{tor: tor, up: up, down: b.g.Reverse(up)}
	return h
}

// Name implements Network.
func (b *base) Name() string { return b.name }

// Graph implements Network.
func (b *base) Graph() *Graph { return b.g }

// Hosts implements Network.
func (b *base) Hosts() []NodeID { return b.hosts }

// ToROf implements Network.
func (b *base) ToROf(host NodeID) NodeID { return b.attach[host].tor }

// AttachNoun implements Network.
func (b *base) AttachNoun() string { return b.noun }

// AttachSwitches returns the distinct switches hosts attach to, in first-
// host order — the family-agnostic replacement for enumerating the ToR
// tier, usable on every family.
func AttachSwitches(net Network) []NodeID {
	seen := make(map[NodeID]bool)
	var res []NodeID
	for _, h := range net.Hosts() {
		tor := net.ToROf(h)
		if !seen[tor] {
			seen[tor] = true
			res = append(res, tor)
		}
	}
	return res
}

// HostUplink implements Network.
func (b *base) HostUplink(host NodeID) LinkID { return b.attach[host].up }

// HostDownlink implements Network.
func (b *base) HostDownlink(host NodeID) LinkID { return b.attach[host].down }

// mustLink returns the link from a to b or panics; topology construction is
// the one place where a missing link is a programming error, not input.
func mustLink(g *Graph, a, b NodeID) LinkID {
	id, ok := g.LinkBetween(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: no link %s -> %s", g.Node(a).Name, g.Node(b).Name))
	}
	return id
}

// joinVia builds a path label from hop names.
func joinVia(parts ...string) string { return strings.Join(parts, ">") }
