package flowsim

import (
	"math"
	"math/rand"
	"testing"

	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// staticController always assigns path 0 and provides hooks for tests.
type staticController struct {
	pathIdx   func(s *Sim, f sched.Flow) int
	onStart   func(s *Sim)
	arrivals  int
	departs   int
	elephants int
}

func (c *staticController) Name() string { return "static" }

func (c *staticController) Start(s *Sim) {
	if c.onStart != nil {
		c.onStart(s)
	}
}

func (c *staticController) InitialPath(h sched.Host, f sched.Flow) int {
	if c.pathIdx != nil {
		return c.pathIdx(h.(*Sim), f)
	}
	return 0
}

func (c *staticController) Arrived(sched.Host, sched.Flow)  { c.arrivals++ }
func (c *staticController) Departed(sched.Host, sched.Flow) { c.departs++ }
func (c *staticController) Elephant(sched.Host, sched.Flow) { c.elephants++ }

func testFatTree(t *testing.T) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func run(t *testing.T, cfg Config) *Results {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSingleFlowFullRate(t *testing.T) {
	ft := testFatTree(t)
	// One 1 Gb transfer over 1 Gbps links: finishes in exactly 1 s.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0}}
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows})
	if len(r.Flows) != 1 || !r.Flows[0].Completed() {
		t.Fatalf("flow did not complete: %+v", r.Flows)
	}
	if got := r.Flows[0].TransferTime; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("transfer time = %g, want 1.0", got)
	}
	if !r.Flows[0].InterPod {
		t.Error("host 0 -> host 8 should be inter-pod")
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	ft := testFatTree(t)
	// Two flows from the same host share its 1 Gbps uplink: each runs at
	// 0.5 Gbps, so 0.5 Gb transfers take 1 s.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 0.5e9, Arrival: 0},
		{ID: 1, Src: 0, Dst: 12, SizeBits: 0.5e9, Arrival: 0},
	}
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows})
	for _, f := range r.Flows {
		if math.Abs(f.TransferTime-1.0) > 1e-9 {
			t.Errorf("flow %d transfer time = %g, want 1.0", f.ID, f.TransferTime)
		}
	}
}

func TestMaxMinUnevenBottlenecks(t *testing.T) {
	ft := testFatTree(t)
	// Flows 0 and 1 leave host 0 (shared 1 Gbps uplink -> 0.5 each).
	// Flow 2 leaves host 2 alone and is capped only by its own links, so
	// max-min gives it the leftover: with distinct paths it gets 1 Gbps.
	ctl := &staticController{pathIdx: func(s *Sim, f sched.Flow) int { return f.ID }}
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0},
		{ID: 1, Src: 0, Dst: 12, SizeBits: 1e9, Arrival: 0},
		{ID: 2, Src: 2, Dst: 9, SizeBits: 1e9, Arrival: 0},
	}
	s, err := New(Config{Net: ft, Controller: ctl, Flows: flows})
	if err != nil {
		t.Fatal(err)
	}
	// Step rates once by peeking after the first recompute: easiest is a
	// full run and checking completion times.
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Flows[2].TransferTime; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("unconstrained flow transfer time = %g, want 1.0", got)
	}
	// Flows 0/1 each run at 0.5 Gbps until flow 2 finishes... they are
	// capped by their shared uplink the whole time: 2 s.
	for _, id := range []int{0, 1} {
		if got := r.Flows[id].TransferTime; math.Abs(got-2.0) > 1e-9 {
			t.Errorf("flow %d transfer time = %g, want 2.0", id, got)
		}
	}
}

func TestRateRisesAfterDeparture(t *testing.T) {
	ft := testFatTree(t)
	// Flow 0 (0.5 Gb) and flow 1 (1.5 Gb) share one uplink. Flow 0 ends
	// at t=1 (0.5 Gbps); flow 1 then speeds up to 1 Gbps and finishes its
	// remaining 1.0 Gb at t=2.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 0.5e9, Arrival: 0},
		{ID: 1, Src: 0, Dst: 12, SizeBits: 1.5e9, Arrival: 0},
	}
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows})
	if got := r.Flows[0].Finish; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("flow 0 finish = %g, want 1.0", got)
	}
	if got := r.Flows[1].Finish; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("flow 1 finish = %g, want 2.0", got)
	}
}

func TestLateArrival(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 2e9, Arrival: 0},
		{ID: 1, Src: 0, Dst: 12, SizeBits: 0.5e9, Arrival: 1.0},
	}
	// Flow 0 alone until t=1 (1 Gb sent), then shares: both at 0.5 Gbps.
	// Flow 1 finishes at t=2; flow 0 has 0.5 Gb left, full rate, t=2.5.
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows})
	if got := r.Flows[1].Finish; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("flow 1 finish = %g, want 2.0", got)
	}
	if got := r.Flows[0].Finish; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("flow 0 finish = %g, want 2.5", got)
	}
}

func TestElephantClassification(t *testing.T) {
	ft := testFatTree(t)
	ctl := &staticController{}
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 0.5e9, Arrival: 0}, // 0.5 s: mouse
		{ID: 1, Src: 2, Dst: 9, SizeBits: 2e9, Arrival: 0},   // 2 s: elephant
	}
	s, err := New(Config{Net: ft, Controller: ctl, Flows: flows, ElephantAge: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Flows[0].Elephant {
		t.Error("0.5s flow misclassified as elephant")
	}
	if !r.Flows[1].Elephant {
		t.Error("2s flow not classified as elephant")
	}
	if ctl.elephants != 1 {
		t.Errorf("Elephant fired %d times, want 1", ctl.elephants)
	}
	if r.PeakElephants != 1 {
		t.Errorf("PeakElephants = %d, want 1", r.PeakElephants)
	}
	if ctl.arrivals != 2 || ctl.departs != 2 {
		t.Errorf("observer counts arrivals=%d departs=%d, want 2/2", ctl.arrivals, ctl.departs)
	}
}

func TestElephantAgeDisabled(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 5e9, Arrival: 0}}
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows, ElephantAge: -1})
	if r.Flows[0].Elephant {
		t.Error("classification disabled but flow marked elephant")
	}
}

func TestElephantInstant(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e8, Arrival: 0}}
	ctl := &staticController{}
	s, err := New(Config{Net: ft, Controller: ctl, Flows: flows, ElephantAge: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ctl.elephants != 1 {
		t.Errorf("near-instant classification fired %d times, want 1", ctl.elephants)
	}
}

func TestSetPathCountsSwitches(t *testing.T) {
	ft := testFatTree(t)
	ctl := &staticController{}
	var sim *Sim
	ctl.onStart = func(s *Sim) {
		sim = s
		s.After(0.5, func() {
			f := s.Flow(0)
			if err := s.SetPath(f, f.PathIdx); err != nil {
				t.Errorf("no-op SetPath: %v", err)
			}
			if f.PathSwitches != 0 {
				t.Error("re-selecting the same path must not count as a switch")
			}
			if err := s.SetPath(f, 2); err != nil {
				t.Errorf("SetPath: %v", err)
			}
			if err := s.SetPath(f, 99); err == nil {
				t.Error("out-of-range SetPath should fail")
			}
		})
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0}}
	r := run(t, Config{Net: ft, Controller: ctl, Flows: flows})
	if got := r.Flows[0].PathSwitches; got != 1 {
		t.Errorf("path switches = %d, want 1", got)
	}
	if sim == nil {
		t.Fatal("Start never ran")
	}
	// Switching paths must not change total bytes delivered: still 1s.
	if got := r.Flows[0].TransferTime; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("transfer time = %g, want 1.0", got)
	}
}

func TestBoNFQueries(t *testing.T) {
	ft := testFatTree(t)
	ctl := &staticController{}
	checked := false
	ctl.onStart = func(s *Sim) {
		s.After(1.5, func() { // after elephant classification at t=1
			f := s.Flow(0)
			if !f.Elephant {
				t.Error("flow should be an elephant by t=1.5")
			}
			up := s.Topo().HostUplink(f.Src)
			if n := s.ElephantsOnLink(up); n != 1 {
				t.Errorf("elephants on uplink = %d, want 1", n)
			}
			torLink := f.Links()[1]
			if n, c := s.ElephantsOnLink(torLink), s.LinkCapacity(torLink); n != 1 || c != 1e9 {
				t.Errorf("ToR uplink carries %d elephants over %g b/s, want 1 over 1e9", n, c)
			}
			idle := s.PathSet(f.SrcToR, f.DstToR).AppendLinks(3, nil)[0]
			if n := s.ElephantsOnLink(idle); n != 0 {
				t.Errorf("elephants on idle link = %d, want 0", n)
			}
			checked = true
		})
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 3e9, Arrival: 0}}
	run(t, Config{Net: ft, Controller: ctl, Flows: flows})
	if !checked {
		t.Fatal("BoNF checks never ran")
	}
}

func TestControlBytesAccounting(t *testing.T) {
	ft := testFatTree(t)
	ctl := &staticController{}
	ctl.onStart = func(s *Sim) {
		s.RecordControl(100)
		s.After(0.5, func() { s.RecordControl(900) })
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0}}
	r := run(t, Config{Net: ft, Controller: ctl, Flows: flows})
	if r.ControlBytes != 1000 {
		t.Errorf("ControlBytes = %g, want 1000", r.ControlBytes)
	}
	// 1 Gb over a 1 Gb/s host link: a 1 s run, so 0.001 MB/s of control.
	if got := r.ControlBytes / 1e6 / r.SimTime; math.Abs(got-0.001) > 1e-12 {
		t.Errorf("control rate = %g MB/s, want 0.001", got)
	}
}

func TestMaxTimeTruncates(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e12, Arrival: 0}}
	r := run(t, Config{Net: ft, Controller: &staticController{}, Flows: flows, MaxTime: 2})
	if r.Unfinished != 1 {
		t.Errorf("Unfinished = %d, want 1", r.Unfinished)
	}
	if r.Flows[0].Completed() {
		t.Error("flow should be unfinished")
	}
}

func TestConfigValidation(t *testing.T) {
	ft := testFatTree(t)
	if _, err := New(Config{Controller: &staticController{}}); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := New(Config{Net: ft}); err == nil {
		t.Error("nil controller should fail")
	}
	bad := []workload.Flow{{ID: 0, Src: 0, Dst: 0, SizeBits: 1, Arrival: 0}}
	if _, err := New(Config{Net: ft, Controller: &staticController{}, Flows: bad}); err == nil {
		t.Error("self-flow should fail")
	}
	bad = []workload.Flow{{ID: 0, Src: 0, Dst: 99, SizeBits: 1, Arrival: 0}}
	if _, err := New(Config{Net: ft, Controller: &staticController{}, Flows: bad}); err == nil {
		t.Error("out-of-range host should fail")
	}
	bad = []workload.Flow{{ID: 0, Src: 0, Dst: 1, SizeBits: 0, Arrival: 0}}
	if _, err := New(Config{Net: ft, Controller: &staticController{}, Flows: bad}); err == nil {
		t.Error("zero size should fail")
	}
	// Batch flows pass the same size and arrival checks as streamed ones.
	for name, wf := range map[string]workload.Flow{
		"NaN size":         {SizeBits: math.NaN()},
		"infinite size":    {SizeBits: math.Inf(1)},
		"NaN arrival":      {SizeBits: 1, Arrival: math.NaN()},
		"infinite arrival": {SizeBits: 1, Arrival: math.Inf(1)},
		"negative arrival": {SizeBits: 1, Arrival: -1},
	} {
		wf.Src, wf.Dst = 0, 1
		if _, err := New(Config{Net: ft, Controller: &staticController{}, Flows: []workload.Flow{wf}}); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	// Batch flows pass the streamed order checks too: IDs are dense and
	// sequential, and arrivals never step back.
	for name, flows := range map[string][]workload.Flow{
		"duplicate ID": {
			{ID: 0, Src: 0, Dst: 1, SizeBits: 1, Arrival: 0},
			{ID: 0, Src: 2, Dst: 3, SizeBits: 1, Arrival: 1},
		},
		"permuted IDs": {
			{ID: 1, Src: 0, Dst: 1, SizeBits: 1, Arrival: 0},
			{ID: 0, Src: 2, Dst: 3, SizeBits: 1, Arrival: 1},
		},
		"decreasing arrival": {
			{ID: 0, Src: 0, Dst: 1, SizeBits: 1, Arrival: 1},
			{ID: 1, Src: 2, Dst: 3, SizeBits: 1, Arrival: 0.5},
		},
	} {
		if _, err := New(Config{Net: ft, Controller: &staticController{}, Flows: flows}); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
}

func TestTimerOrderDeterministic(t *testing.T) {
	ft := testFatTree(t)
	var order []int
	ctl := &staticController{}
	ctl.onStart = func(s *Sim) {
		s.After(0.5, func() { order = append(order, 1) })
		s.After(0.5, func() { order = append(order, 2) })
		s.After(0.25, func() { order = append(order, 0) })
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0}}
	run(t, Config{Net: ft, Controller: ctl, Flows: flows})
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("timer order = %v, want [0 1 2]", order)
	}
}

// TestMaxMinProperty verifies the defining property of a max-min fair
// allocation on random flow sets: no link is oversubscribed, and every
// flow crosses at least one saturated link on which it has the maximal
// rate (i.e. its bottleneck).
func TestMaxMinProperty(t *testing.T) {
	ft := testFatTree(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nf := 2 + rng.Intn(40)
		flows := make([]workload.Flow, nf)
		for i := range flows {
			src := rng.Intn(16)
			dst := rng.Intn(15)
			if dst >= src {
				dst++
			}
			flows[i] = workload.Flow{ID: i, Src: src, Dst: dst, SizeBits: 1e9, Arrival: 0}
		}
		ctl := &staticController{pathIdx: func(s *Sim, f sched.Flow) int {
			return rng.Intn(s.PathSet(f.SrcToR, f.DstToR).Len())
		}}
		var sim *Sim
		done := false
		ctl.onStart = func(s *Sim) {
			sim = s
			// Strictly positive delay so every t=0 arrival is processed
			// before the check runs.
			s.After(1e-6, func() {
				s.recomputeRates()
				checkMaxMin(t, s)
				done = true
			})
		}
		if _, err := (&runHelper{t: t}).run(Config{Net: ft, Controller: ctl, Flows: flows, Seed: int64(trial)}); err != nil {
			t.Fatal(err)
		}
		if sim == nil || !done {
			t.Fatal("max-min check never executed")
		}
	}
}

type runHelper struct{ t *testing.T }

func (h *runHelper) run(cfg Config) (*Results, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

func checkMaxMin(t *testing.T, s *Sim) {
	t.Helper()
	g := s.Topo().Graph()
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
		if ld > g.Link(l).Capacity*(1+eps) {
			t.Fatalf("link %d oversubscribed: %g > %g", l, ld, g.Link(l).Capacity)
		}
	}
	for _, f := range s.Active() {
		hasBottleneck := false
		for _, l := range f.Links() {
			saturated := load[l] >= g.Link(l).Capacity*(1-eps)
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
