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
	// PortStamp returns a switch's port-state stamp. It must change
	// whenever the elephant count or the capacity of any exit link of sw
	// changes; agents re-read their ports only when it does.
	PortStamp(sw topology.NodeID) uint64
}

// SwitchAgent answers state queries for one switch, the role OpenFlow's
// aggregate flow statistics interface plays in the prototype (§3.1).
type SwitchAgent struct {
	src      StateSource
	switchID topology.NodeID
	out      []topology.LinkID
	// records holds the encoded port records, PortStateLen bytes per
	// exit port, as of the source's stamp; built is false until the first
	// Serve fills them. The reply header echoes each query, so it is
	// encoded per Serve and not cached.
	records []byte
	stamp   uint64
	built   bool
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
	return &SwitchAgent{
		src:      src,
		switchID: switchID,
		out:      out,
		records:  make([]byte, len(out)*PortStateLen),
	}, nil
}

// Links returns the exit links the agent reports on, in stable order.
// Monitors that give a switch up for dead use this set to synthesize
// zero-bandwidth state for every port it covered.
func (a *SwitchAgent) Links() []topology.LinkID { return a.out }

// Serve handles one marshaled query and appends the marshaled reply,
// carrying the current state of every exit port, to dst. The port
// records are re-read and re-encoded only when the source's PortStamp
// for this switch has moved since the last Serve. A caller that passes
// the same buffer back every exchange serves without allocating.
func (a *SwitchAgent) Serve(dst, queryBytes []byte) ([]byte, error) {
	var q Query
	if err := q.UnmarshalBinary(queryBytes); err != nil {
		return dst, err
	}
	if q.SwitchID != uint32(a.switchID) {
		return dst, fmt.Errorf("ctlmsg: query for switch %d delivered to %d", q.SwitchID, a.switchID)
	}
	if stamp := a.src.PortStamp(a.switchID); !a.built || stamp != a.stamp {
		for i, l := range a.out {
			putPortState(a.records[i*PortStateLen:], PortState{
				LinkID:        uint32(l),
				BandwidthMbps: uint32(a.src.LinkCapacity(l) / 1e6),
				ElephantFlows: uint32(a.src.ElephantsOnLink(l)),
			})
		}
		a.stamp, a.built = stamp, true
	}
	dst = appendReplyHeader(dst, q.SwitchID, q.SeqNo, len(a.out))
	return append(dst, a.records...), nil
}
