package flowsim

import (
	"math"
	"math/rand"
	"testing"

	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// These tests enforce the incremental engine's contract: it must
// reproduce the retained reference scheduler (reference.go) bit for bit
// — every finish time, every path-switch count, every byte of control
// traffic — on workloads with churn, path switching, and mid-run link
// failures. Float comparisons use math.Float64bits so NaN (unfinished
// flows) and signed zeros are compared exactly.

// diffResults fails the test on the first field where the incremental
// engine's results diverge from the reference's.
func diffResults(t *testing.T, inc, ref *Results) {
	t.Helper()
	if inc.Controller != ref.Controller {
		t.Fatalf("Controller: %q vs reference %q", inc.Controller, ref.Controller)
	}
	if inc.Unfinished != ref.Unfinished {
		t.Fatalf("Unfinished: %d vs reference %d", inc.Unfinished, ref.Unfinished)
	}
	if math.Float64bits(inc.SimTime) != math.Float64bits(ref.SimTime) {
		t.Fatalf("SimTime: %v vs reference %v", inc.SimTime, ref.SimTime)
	}
	if math.Float64bits(inc.ControlBytes) != math.Float64bits(ref.ControlBytes) {
		t.Fatalf("ControlBytes: %v vs reference %v", inc.ControlBytes, ref.ControlBytes)
	}
	if inc.PeakElephants != ref.PeakElephants {
		t.Fatalf("PeakElephants: %d vs reference %d", inc.PeakElephants, ref.PeakElephants)
	}
	if len(inc.Flows) != len(ref.Flows) {
		t.Fatalf("Flows: %d entries vs reference %d", len(inc.Flows), len(ref.Flows))
	}
	for i := range inc.Flows {
		a, b := inc.Flows[i], ref.Flows[i]
		if a.ID != b.ID || a.PathSwitches != b.PathSwitches ||
			a.FinalPathIdx != b.FinalPathIdx || a.Elephant != b.Elephant ||
			math.Float64bits(a.Finish) != math.Float64bits(b.Finish) ||
			math.Float64bits(a.TransferTime) != math.Float64bits(b.TransferTime) {
			t.Fatalf("flow %d diverges:\n  incremental %+v\n  reference   %+v", a.ID, a, b)
		}
	}
}

// fabricLinks returns the directed aggr->core links of the graph, in ID
// order.
func fabricLinks(g *topology.Graph) []topology.LinkID {
	var out []topology.LinkID
	for l := 0; l < g.NumLinks(); l++ {
		lk := g.Link(topology.LinkID(l))
		if g.Node(lk.From).Kind == topology.Aggr && g.Node(lk.To).Kind == topology.Core {
			out = append(out, lk.ID)
		}
	}
	return out
}

// duplexEvent fails (or repairs) both directions of a duplex link.
func duplexEvent(g *topology.Graph, at float64, l topology.LinkID, down bool) []topology.LinkEvent {
	return []topology.LinkEvent{
		{At: at, Link: l, Down: down},
		{At: at, Link: g.Reverse(l), Down: down},
	}
}

func randomFlows(rng *rand.Rand, n, hosts int, maxSize float64) []workload.Flow {
	flows := make([]workload.Flow, n)
	for i := range flows {
		src := rng.Intn(hosts)
		dst := rng.Intn(hosts - 1)
		if dst >= src {
			dst++
		}
		flows[i] = workload.Flow{
			ID:       i,
			Src:      src,
			Dst:      dst,
			SizeBits: (0.1 + rng.Float64()) * maxSize,
			Arrival:  rng.Float64() * 2,
		}
	}
	return flows
}

// switchingController assigns random paths and keeps re-routing a random
// active flow from a timer, exercising SetPath's incremental membership
// maintenance in both engines. All randomness comes from the simulation's
// own seeded RNG, so both engines see identical decisions.
type switchingController struct {
	interval float64
}

func (c *switchingController) Name() string { return "switcher" }

func (c *switchingController) Start(s *Sim) {
	var tick func()
	tick = func() {
		if act := s.Active(); len(act) > 0 {
			f := act[s.Rand().Intn(len(act))]
			if err := s.SetPath(f, s.Rand().Intn(len(s.Paths(f.SrcToR, f.DstToR)))); err != nil {
				panic(err)
			}
			s.RecordControl(64)
		}
		s.After(c.interval, tick)
	}
	s.After(c.interval, tick)
}

func (c *switchingController) InitialPath(h sched.Host, f sched.Flow) int {
	return h.Rand().Intn(len(h.(*Sim).Paths(f.SrcToR, f.DstToR)))
}

// TestReferenceEquivalence runs randomized workloads with path churn and
// a mid-run duplex link failure plus repair on the p=4 fat-tree, on both
// engines, and requires bit-identical results.
func TestReferenceEquivalence(t *testing.T) {
	ft := testFatTree(t)
	g := ft.Graph()
	fabric := fabricLinks(g)
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		flows := randomFlows(rng, 5+rng.Intn(60), 16, 2e9)
		var events []topology.LinkEvent
		if trial%2 == 0 {
			l := fabric[rng.Intn(len(fabric))]
			events = append(events, duplexEvent(g, 0.5, l, true)...)
			events = append(events, duplexEvent(g, 2.5, l, false)...)
		}
		cfg := Config{
			Net:         ft,
			Flows:       flows,
			Seed:        int64(trial),
			ElephantAge: 0.25,
			MaxTime:     120,
			LinkEvents:  events,
		}
		cfg.Controller = &switchingController{interval: 0.2}
		inc := run(t, cfg)
		cfg.Reference = true
		cfg.Controller = &switchingController{interval: 0.2}
		ref := run(t, cfg)
		diffResults(t, inc, ref)
	}
}

// batchController re-routes a whole batch of active flows from a single
// timer — the recompute shape Hedera-style central rounds produce. One
// event dirties many flows at once, so the seeds typically partition
// into several disjoint components, exercising the component partition.
// All randomness comes from the simulation's seeded RNG, so the
// incremental and reference runs make identical decisions.
type batchController struct {
	interval float64
	batch    int
}

func (c *batchController) Name() string { return "batcher" }

func (c *batchController) Start(s *Sim) {
	var tick func()
	tick = func() {
		act := s.Active()
		for i := 0; i < c.batch && len(act) > 0; i++ {
			f := act[s.Rand().Intn(len(act))]
			if err := s.SetPath(f, s.Rand().Intn(len(s.Paths(f.SrcToR, f.DstToR)))); err != nil {
				panic(err)
			}
			s.RecordControl(64)
		}
		s.After(c.interval, tick)
	}
	s.After(c.interval, tick)
}

func (c *batchController) InitialPath(h sched.Host, f sched.Flow) int {
	return h.Rand().Intn(len(h.(*Sim).Paths(f.SrcToR, f.DstToR)))
}

// TestBatchReferenceEquivalence pins the component-scoped recompute at
// the engine level: on a workload whose batched path switches force
// multi-component recomputes, the incremental engine must reproduce the
// reference scheduler's results AND its mid-run per-flow rate
// allocations to the exact Float64bits.
func TestBatchReferenceEquivalence(t *testing.T) {
	ft := testFatTree(t)
	g := ft.Graph()
	fabric := fabricLinks(g)
	rng := rand.New(rand.NewSource(42))
	flows := randomFlows(rng, 48, 16, 2e9)
	var events []topology.LinkEvent
	l := fabric[rng.Intn(len(fabric))]
	events = append(events, duplexEvent(g, 0.6, l, true)...)
	events = append(events, duplexEvent(g, 2.2, l, false)...)

	// collect runs the scenario and records, at fixed checkpoints, the
	// Float64bits of every flow's current rate (inactive flows as a
	// sentinel), flow-ID major.
	collect := func(reference bool) (*Results, []uint64, int64) {
		cfg := Config{
			Net:         ft,
			Controller:  &batchController{interval: 0.15, batch: 6},
			Flows:       flows,
			Seed:        42,
			ElephantAge: 0.25,
			MaxTime:     120,
			LinkEvents:  events,
			Reference:   reference,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rates []uint64
		for _, at := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} {
			s.After(at, func() {
				s.recomputeRates()
				for id := range flows {
					f := s.Flow(id)
					if !s.FlowActive(id) {
						rates = append(rates, ^uint64(0))
						continue
					}
					rates = append(rates, math.Float64bits(f.Rate()))
				}
			})
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rates, s.multiComps
	}

	res, rates, multiComps := collect(false)
	if multiComps == 0 {
		t.Fatal("scenario produced no multi-component recomputes; the partition is untested")
	}
	refRes, refRates, _ := collect(true)
	diffResults(t, res, refRes)
	if len(rates) != len(refRates) {
		t.Fatalf("%d rate samples vs %d reference", len(rates), len(refRates))
	}
	for i := range rates {
		if rates[i] != refRates[i] {
			t.Fatalf("rate sample %d (flow %d) = %x, reference %x",
				i, i%len(flows), rates[i], refRates[i])
		}
	}
}

// checkMaxMinLive is checkMaxMin against the effective (failure-aware)
// link capacities: a dead link has capacity zero, so the flows stranded
// on it are bottlenecked there at rate zero.
func checkMaxMinLive(t *testing.T, s *Sim) {
	t.Helper()
	load := make(map[topology.LinkID]float64)
	maxRate := make(map[topology.LinkID]float64)
	for _, f := range s.Active() {
		for _, l := range f.Links() {
			load[l] += f.Rate()
			if f.Rate() > maxRate[l] {
				maxRate[l] = f.Rate()
			}
		}
	}
	const eps = 1e-6
	for l, ld := range load {
		if cap := s.LinkCapacity(l); ld > cap*(1+eps)+eps {
			t.Fatalf("link %d oversubscribed: %g > %g", l, ld, cap)
		}
	}
	for _, f := range s.Active() {
		hasBottleneck := false
		for _, l := range f.Links() {
			saturated := load[l] >= s.LinkCapacity(l)*(1-eps)
			if saturated && f.Rate() >= maxRate[l]-eps {
				hasBottleneck = true
				break
			}
		}
		if !hasBottleneck {
			t.Fatalf("flow %d (rate %g) has no bottleneck link", f.ID, f.Rate())
		}
	}
}

// TestFabricEquivalenceAndFairness is the p=16 stress case: the paper's
// switching fabric (128 ToRs at one host each), hundreds of flows, three
// mid-run duplex fabric failures and one repair. Both engines must agree
// bit for bit, and the incremental engine's live allocation must satisfy
// the max-min property before, between, and after the failures.
func TestFabricEquivalenceAndFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("p=16 fabric run skipped in -short mode")
	}
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 16, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	fabric := fabricLinks(g)
	rng := rand.New(rand.NewSource(17))
	flows := randomFlows(rng, 400, 128, 4e9)
	var events []topology.LinkEvent
	for i := 0; i < 3; i++ {
		events = append(events, duplexEvent(g, 1.0+0.5*float64(i), fabric[rng.Intn(len(fabric))], true)...)
	}
	events = append(events, duplexEvent(g, 3.0, events[0].Link, false)...)
	cfg := Config{
		Net:         ft,
		Flows:       flows,
		Seed:        17,
		ElephantAge: 0.25,
		MaxTime:     300,
		LinkEvents:  events,
	}
	checks := 0
	cfg.Controller = &switchingController{interval: 0.25}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []float64{0.75, 1.25, 1.75, 2.25, 3.5} {
		s.After(at, func() {
			s.recomputeRates()
			checkMaxMinLive(t, s)
			checks++
		})
	}
	inc, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if checks != 5 {
		t.Fatalf("ran %d fairness checks, want 5", checks)
	}
	if inc.Unfinished != 0 {
		t.Fatalf("%d unfinished flows at p=16", inc.Unfinished)
	}

	cfg.Reference = true
	cfg.Controller = &switchingController{interval: 0.25}
	ref := run(t, cfg)
	diffResults(t, inc, ref)
}
