// Package texcp implements the distributed online traffic engineering
// baseline of §4.3.3 (Kandula et al., SIGCOMM 2005), adapted to
// datacenters as the paper did: one agent per source-destination ToR pair
// probes the utilization of every equal-cost path every ProbeInterval
// (10 ms, shortened from TeXCP's WAN default because datacenter RTTs are
// sub-millisecond) and rebalances per-packet split weights every five
// probe intervals. Packets of one flow spread across paths in proportion
// to the weights — the packet-level scheduling whose reordering cost
// Figure 14 measures. The flowlet extension is future work in the paper
// and is likewise not implemented here.
package texcp

import (
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/topology"
)

// Defaults for the control loop.
const (
	// DefaultProbeInterval is the path-state probing period in seconds.
	DefaultProbeInterval = 0.010
	// ControlIntervalProbes is the number of probe intervals per weight
	// update ("we set the control interval to be five times of the probe
	// interval", §4.3.3).
	ControlIntervalProbes = 5
	// DefaultStep is the weight adjustment gain.
	DefaultStep = 0.3
	// MinWeight keeps every path minimally probed so a drained path can
	// recover.
	MinWeight = 0.01
	// ProbeBytes approximates one probe packet and its echo.
	ProbeBytes = 64
)

// Policy is the TeXCP policy for the packet simulator.
type Policy struct {
	// ProbeInterval overrides DefaultProbeInterval when positive.
	ProbeInterval float64
	// Step overrides DefaultStep when positive.
	Step float64

	agents map[[2]topology.NodeID]*agent
}

var (
	_ sched.Policy      = (*Policy)(nil)
	_ psim.PacketRouter = (*Policy)(nil)
)

// New builds a TeXCP policy.
func New() *Policy {
	return &Policy{agents: make(map[[2]topology.NodeID]*agent)}
}

// Name implements sched.Policy.
func (*Policy) Name() string { return "TeXCP" }

// InitialPath implements sched.Policy with the ECMP hash; with
// per-packet splitting the sticky index is only a fallback.
func (p *Policy) InitialPath(h sched.Host, f sched.Flow) int {
	return sched.ECMP{}.InitialPath(h, f)
}

// PacketRoute returns a per-packet route picker: every data packet draws
// a path from the pair agent's current weights.
func (p *Policy) PacketRoute(rt *psim.Runtime, f *psim.FlowState) func() []topology.LinkID {
	n := rt.PathSet(f.SrcToR, f.DstToR).Len()
	if n <= 1 {
		return nil // single path: no splitting
	}
	a := p.agent(rt, f.SrcToR, f.DstToR)
	// Pre-build the host-to-host routes once.
	routes := make([][]topology.LinkID, n)
	for i := range routes {
		routes[i] = rt.Route(f, i)
	}
	return func() []topology.LinkID {
		return routes[a.pick(rt)]
	}
}

// agent is the per-ToR-pair load balancer.
type agent struct {
	// ps is the pair's implicit path set; the agent stores this small
	// handle instead of materialized paths.
	ps      topology.PathSet
	weights []float64
	cum     []float64 // cumulative weights for sampling

	linkSnap  map[topology.LinkID]float64 // BitsSent at the last probe
	lastProbe float64
	utils     []float64
	probes    int
	step      float64
	linkBuf   []topology.LinkID // scratch for per-path link resolution
}

func (p *Policy) agent(rt *psim.Runtime, srcToR, dstToR topology.NodeID) *agent {
	key := [2]topology.NodeID{srcToR, dstToR}
	if a, ok := p.agents[key]; ok {
		return a
	}
	ps := rt.PathSet(srcToR, dstToR)
	n := ps.Len()
	a := &agent{
		ps:       ps,
		weights:  make([]float64, n),
		cum:      make([]float64, n),
		utils:    make([]float64, n),
		linkSnap: make(map[topology.LinkID]float64),
		step:     p.Step,
	}
	if a.step <= 0 {
		a.step = DefaultStep
	}
	for i := range a.weights {
		a.weights[i] = 1 / float64(n)
	}
	a.rebuildCum()
	p.agents[key] = a

	interval := p.ProbeInterval
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	a.snapshotLinks(rt)
	a.lastProbe = rt.Now()
	var tick func()
	tick = func() {
		a.probe(rt)
		rt.After(interval, tick)
	}
	rt.After(interval, tick)
	return a
}

// snapshotLinks records the BitsSent counter of every link on the agent's
// paths.
func (a *agent) snapshotLinks(rt *psim.Runtime) {
	for i := 0; i < a.ps.Len(); i++ {
		a.linkBuf = a.ps.AppendLinks(i, a.linkBuf[:0])
		for _, l := range a.linkBuf {
			a.linkSnap[l] = rt.Net().BitsSent(l)
		}
	}
}

// probe measures each path's utilization since the last probe (the
// maximum per-link utilization along the path, as a TeXCP probe echoing
// back the most congested hop would report) and periodically rebalances.
func (a *agent) probe(rt *psim.Runtime) {
	dt := rt.Now() - a.lastProbe
	if dt <= 0 {
		return
	}
	rt.RecordControl(float64(a.ps.Len()) * ProbeBytes)
	for i := 0; i < a.ps.Len(); i++ {
		maxU := 0.0
		a.linkBuf = a.ps.AppendLinks(i, a.linkBuf[:0])
		for _, l := range a.linkBuf {
			sent := rt.Net().BitsSent(l) - a.linkSnap[l]
			u := sent / (rt.LinkCapacity(l) * dt)
			if u > maxU {
				maxU = u
			}
		}
		a.utils[i] = a.utils[i]*0.5 + maxU*0.5 // EWMA over probes
	}
	a.snapshotLinks(rt)
	a.lastProbe = rt.Now()

	a.probes++
	if a.probes%ControlIntervalProbes == 0 {
		a.rebalance()
	}
}

// rebalance applies the TeXCP-style update: shift weight toward paths
// with utilization below the mean and away from those above, then clamp
// and normalize.
func (a *agent) rebalance() {
	mean := 0.0
	for _, u := range a.utils {
		mean += u
	}
	mean /= float64(len(a.utils))
	if mean <= 0 {
		return
	}
	total := 0.0
	for i := range a.weights {
		a.weights[i] += a.step * (mean - a.utils[i]) / (mean + 1e-9) * a.weights[i]
		if a.weights[i] < MinWeight {
			a.weights[i] = MinWeight
		}
		total += a.weights[i]
	}
	for i := range a.weights {
		a.weights[i] /= total
	}
	a.rebuildCum()
}

func (a *agent) rebuildCum() {
	sum := 0.0
	for i, w := range a.weights {
		sum += w
		a.cum[i] = sum
	}
}

// pick draws a path index proportional to the weights.
func (a *agent) pick(rt *psim.Runtime) int {
	r := rt.Rand().Float64() * a.cum[len(a.cum)-1]
	for i, c := range a.cum {
		if r <= c {
			return i
		}
	}
	return len(a.cum) - 1
}
