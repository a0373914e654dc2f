package hedera

import (
	"math"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/topology"
)

// Control message sizes in bytes (§4.3.4): an elephant-flow report from a
// ToR switch to the controller, and a flow-table update from the
// controller to a switch.
const (
	ReportBytes = 80
	UpdateBytes = 72
)

// DefaultInterval is the centralized scheduling period (§4.3.1).
const DefaultInterval = 5.0

// The simulated annealing search of one round.
const (
	// annealIterations bounds the search per round.
	annealIterations = 1000
	// annealInitialTemp is the starting Metropolis temperature.
	annealInitialTemp = 1.0
	// annealCooling is the per-iteration temperature decay.
	annealCooling = 0.995
)

// Options tunes the centralized controller.
type Options struct {
	// Interval is the scheduling period in seconds; zero means
	// DefaultInterval.
	Interval float64
}

func (o *Options) applyDefaults() {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
}

// Controller is the Hedera-style centralized scheduler: flows start on
// their ECMP hash; every Interval the controller collects all elephant
// flows, estimates their natural demands, anneals a destination-host ->
// path-class assignment (a core switch in a fat-tree, an aggregation pair
// slot plus intermediate in a Clos network, §4.3.2), and installs the
// result. It is a sched.Policy for the flow engine only: its rounds read
// the engine's global active-flow table, and annealing depends on that
// table's order, so it installs them through flowsim.Starter.
type Controller struct {
	opts Options
	ecmp sched.ECMP

	// viaOf persists the per-destination-host path class between rounds
	// so annealing refines rather than restarts (Hedera seeds each round
	// with the previous assignment).
	viaOf map[topology.NodeID]int

	// Rounds and Moves count scheduling rounds and applied path changes.
	Rounds int
	Moves  int
}

var (
	_ sched.Policy    = (*Controller)(nil)
	_ flowsim.Starter = (*Controller)(nil)
)

// New creates a centralized simulated-annealing controller.
func New(opts Options) *Controller {
	opts.applyDefaults()
	return &Controller{opts: opts, viaOf: make(map[topology.NodeID]int)}
}

// Name implements sched.Policy.
func (c *Controller) Name() string { return "SimulatedAnnealing" }

// InitialPath implements sched.Policy with the ECMP default route.
func (c *Controller) InitialPath(h sched.Host, f sched.Flow) int {
	return c.ecmp.InitialPath(h, f)
}

// Start implements flowsim.Starter: it installs the periodic scheduling
// round.
func (c *Controller) Start(s *flowsim.Sim) {
	s.AfterRef(c.opts.Interval, roundRef(), c.roundFn(s))
}

// roundFn builds one firing of the controller's round chain; restore
// rebuilds it from the timer's tag (snapshot.go).
func (c *Controller) roundFn(s *flowsim.Sim) func() {
	var round func()
	round = func() {
		c.runRound(s)
		s.AfterRef(c.opts.Interval, roundRef(), round)
	}
	return round
}

// runRound is one centralized scheduling pass.
func (c *Controller) runRound(s *flowsim.Sim) {
	c.Rounds++

	// Collect elephants with path diversity; each is one ToR report.
	var elephants []*flowsim.Flow
	pairs := make(map[Pair]int)
	hostIdx := make(map[topology.NodeID]int, len(s.Topo().Hosts()))
	for i, h := range s.Topo().Hosts() {
		hostIdx[h] = i
	}
	maxVia := 1
	for _, f := range s.Active() {
		if !f.Elephant || f.SrcToR == f.DstToR {
			continue
		}
		elephants = append(elephants, f)
		pairs[Pair{Src: hostIdx[f.Src], Dst: hostIdx[f.Dst]}]++
		if n := s.PathSet(f.SrcToR, f.DstToR).Len(); n > maxVia {
			maxVia = n
		}
	}
	s.RecordControl(float64(len(elephants)) * ReportBytes)
	if len(elephants) == 0 {
		return
	}

	demands := EstimateDemands(pairs)

	// Normalize demands to bits/s using each flow's host uplink rate.
	g := s.Topo().Graph()
	demandOf := func(f *flowsim.Flow) float64 {
		d := demands[Pair{Src: hostIdx[f.Src], Dst: hostIdx[f.Dst]}]
		return d * g.Link(s.Topo().HostUplink(f.Src)).Capacity
	}

	assignment := c.anneal(s, elephants, demandOf, maxVia)

	// Install the assignment; re-routing a flow updates the flow table
	// of every switch along its new path, one controller -> switch
	// message each (§4.3.4).
	var linkBuf []topology.LinkID
	for _, f := range elephants {
		via, ok := assignment[f.Dst]
		if !ok {
			continue
		}
		ps := s.PathSet(f.SrcToR, f.DstToR)
		idx := via % ps.Len()
		if idx != f.PathIdx {
			if err := s.SetPath(f, idx); err == nil {
				c.Moves++
				linkBuf = ps.AppendLinks(idx, linkBuf[:0])
				s.RecordControl(float64(len(linkBuf)+1) * UpdateBytes)
			}
		}
	}
}

// anneal searches for a destination-host -> path-class assignment that
// minimizes estimated overload using Metropolis simulated annealing.
func (c *Controller) anneal(s *flowsim.Sim, elephants []*flowsim.Flow, demandOf func(*flowsim.Flow) float64, maxVia int) map[topology.NodeID]int {
	g := s.Topo().Graph()
	rng := s.Rand()

	// Destinations receiving elephants, in deterministic order.
	var dsts []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	flowsByDst := make(map[topology.NodeID][]*flowsim.Flow)
	for _, f := range elephants {
		if !seen[f.Dst] {
			seen[f.Dst] = true
			dsts = append(dsts, f.Dst)
		}
		flowsByDst[f.Dst] = append(flowsByDst[f.Dst], f)
	}

	// Current assignment: keep previous round's choice, else the flow's
	// current path class.
	cur := make(map[topology.NodeID]int, len(dsts))
	for _, d := range dsts {
		if v, ok := c.viaOf[d]; ok {
			cur[d] = v % maxVia
		} else {
			cur[d] = flowsByDst[d][0].PathIdx % maxVia
		}
	}

	// Loads live in a dense slice and the energy scan walks a stable
	// touched-link list: map iteration would make the floating-point
	// accumulation order (and hence annealing decisions) vary run to run.
	load := make([]float64, g.NumLinks())
	var touched []topology.LinkID
	touchedSet := make([]bool, g.NumLinks())
	// The annealing loop calls place for every flow of a destination on
	// every iteration; resolving links through the implicit path set into
	// one reused buffer keeps the search allocation-free.
	linkBuf := make([]topology.LinkID, 0, 8)
	place := func(f *flowsim.Flow, via int, sign float64) {
		ps := s.PathSet(f.SrcToR, f.DstToR)
		linkBuf = ps.AppendLinks(via%ps.Len(), linkBuf[:0])
		d := demandOf(f)
		for _, l := range linkBuf {
			load[l] += sign * d
			if !touchedSet[l] {
				touchedSet[l] = true
				touched = append(touched, l)
			}
		}
	}
	energyOf := func() float64 {
		e := 0.0
		for _, l := range touched {
			if capacity := g.Link(l).Capacity; load[l] > capacity {
				e += (load[l] - capacity) / capacity
			}
		}
		return e
	}
	for _, f := range elephants {
		place(f, cur[f.Dst], +1)
	}
	energy := energyOf()
	best := make(map[topology.NodeID]int, len(cur))
	for k, v := range cur {
		best[k] = v
	}
	bestEnergy := energy

	temp := annealInitialTemp
	for it := 0; it < annealIterations && bestEnergy > 0; it++ {
		d := dsts[rng.Intn(len(dsts))]
		oldVia := cur[d]
		newVia := rng.Intn(maxVia)
		if newVia == oldVia {
			temp *= annealCooling
			continue
		}
		for _, f := range flowsByDst[d] {
			place(f, oldVia, -1)
			place(f, newVia, +1)
		}
		newEnergy := energyOf()
		accept := newEnergy <= energy
		if !accept && temp > 1e-9 {
			accept = rng.Float64() < math.Exp((energy-newEnergy)/temp)
		}
		if accept {
			cur[d] = newVia
			energy = newEnergy
			if energy < bestEnergy {
				bestEnergy = energy
				for k, v := range cur {
					best[k] = v
				}
			}
		} else {
			for _, f := range flowsByDst[d] {
				place(f, newVia, -1)
				place(f, oldVia, +1)
			}
		}
		temp *= annealCooling
	}

	for k, v := range best {
		c.viaOf[k] = v
	}
	return best
}
