package ctlmsg

import (
	"fmt"

	"dard/internal/topology"
)

// StateSource is the view of the network a switch agent answers queries
// from. Both simulation engines implement it as part of sched.Host, the
// surface every path policy runs on (flowsim.Sim from its active-flow
// routes; psim.Runtime through its elephant counters).
type StateSource interface {
	// Topo returns the topology.
	Topo() topology.Network
	// ElephantsOnLink reports the elephant flows installed on a link.
	ElephantsOnLink(l topology.LinkID) int
	// LinkCapacity returns a link's effective bandwidth in bits/s.
	LinkCapacity(l topology.LinkID) float64
}

// SwitchAgent answers state queries for one switch, the role OpenFlow's
// aggregate flow statistics interface plays in the prototype (§3.1).
type SwitchAgent struct {
	src      StateSource
	switchID topology.NodeID
	out      []topology.LinkID
}

// NewSwitchAgent builds the agent for a switch.
func NewSwitchAgent(src StateSource, switchID topology.NodeID) (*SwitchAgent, error) {
	g := src.Topo().Graph()
	if int(switchID) >= g.NumNodes() {
		return nil, fmt.Errorf("ctlmsg: no such switch %d", switchID)
	}
	if g.Node(switchID).Kind == topology.Host {
		return nil, fmt.Errorf("ctlmsg: %s is a host, not a switch", g.Node(switchID).Name)
	}
	out := g.Out(switchID)
	if len(out) > 0xffff {
		return nil, fmt.Errorf("ctlmsg: switch %d has too many ports (%d)", switchID, len(out))
	}
	return &SwitchAgent{src: src, switchID: switchID, out: out}, nil
}

// Links returns the exit links the agent reports on, in stable order.
// Monitors that give a switch up for dead use this set to synthesize
// zero-bandwidth state for every port it covered.
func (a *SwitchAgent) Links() []topology.LinkID { return a.out }

// Serve handles one marshaled query and appends the marshaled reply,
// carrying the current state of every exit port as ReadPort reads it,
// to dst. A caller that passes the same buffer back every exchange
// serves without allocating.
func (a *SwitchAgent) Serve(dst, queryBytes []byte) ([]byte, error) {
	var q Query
	if err := q.UnmarshalBinary(queryBytes); err != nil {
		return dst, err
	}
	if q.SwitchID != uint32(a.switchID) {
		return dst, fmt.Errorf("ctlmsg: query for switch %d delivered to %d", q.SwitchID, a.switchID)
	}
	dst = appendReplyHeader(dst, q.SwitchID, q.SeqNo, len(a.out))
	for _, l := range a.out {
		dst = appendPortState(dst, ReadPort(a.src, l))
	}
	return dst, nil
}

// ReadPort returns the state a switch reports for its exit link l: the
// record Serve encodes for that port.
func ReadPort(src StateSource, l topology.LinkID) PortState {
	return PortState{
		LinkID:        uint32(l),
		BandwidthMbps: uint32(src.LinkCapacity(l) / 1e6),
		ElephantFlows: uint32(src.ElephantsOnLink(l)),
	}
}
