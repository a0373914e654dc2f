package texcp

import (
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/topology"
)

// The paper leaves flowlet-granularity TeXCP as future work (§4.3.3,
// citing Sinha et al.'s "Harnessing TCP's Burstiness with Flowlet
// Switching"): per-packet splitting reorders segments, but TCP sends in
// bursts, and switching paths only between bursts keeps each burst in
// order. FlowletPolicy implements exactly that on top of the TeXCP
// weights: a flow's packets stay on the current path while they arrive
// within Timeout of each other; after an idle gap longer than Timeout —
// larger than the path RTT difference, so in-flight packets have drained
// — the next burst re-draws a path from the agent's weights.

// DefaultFlowletTimeout separates bursts; it must exceed the RTT spread
// across the equal-cost paths (sub-millisecond in a datacenter).
const DefaultFlowletTimeout = 0.002

// FlowletPolicy is TeXCP with flowlet-granularity switching.
type FlowletPolicy struct {
	*Policy
	// Timeout is the idle gap that ends a flowlet; zero means
	// DefaultFlowletTimeout.
	Timeout float64
}

var (
	_ sched.Policy      = (*FlowletPolicy)(nil)
	_ psim.PacketRouter = (*FlowletPolicy)(nil)
)

// NewFlowlet builds a flowlet-switching TeXCP policy.
func NewFlowlet(timeout float64) *FlowletPolicy {
	if timeout <= 0 {
		timeout = DefaultFlowletTimeout
	}
	return &FlowletPolicy{Policy: New(), Timeout: timeout}
}

// Name implements sched.Policy.
func (*FlowletPolicy) Name() string { return "TeXCP-flowlet" }

// PacketRoute returns a picker that holds the path within a flowlet and
// re-draws from the TeXCP weights between flowlets.
func (p *FlowletPolicy) PacketRoute(rt *psim.Runtime, f *psim.FlowState) func() []topology.LinkID {
	n := rt.PathSet(f.SrcToR, f.DstToR).Len()
	if n <= 1 {
		return nil
	}
	a := p.agent(rt, f.SrcToR, f.DstToR)
	routes := make([][]topology.LinkID, n)
	for i := range routes {
		routes[i] = rt.Route(f, i)
	}
	cur := a.pick(rt)
	lastSend := -1.0
	return func() []topology.LinkID {
		now := rt.Now()
		if lastSend >= 0 && now-lastSend > p.Timeout {
			cur = a.pick(rt) // new flowlet: free to switch
		}
		lastSend = now
		return routes[cur]
	}
}
