package dard

import (
	"math"
	"testing"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

func fatTree(t *testing.T) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// path0Controller wraps DARD but pins every initial assignment to path 0,
// recreating the paper's Figure 1 starting state where all elephants
// collide on core1.
type path0Controller struct {
	*Controller
}

func (path0Controller) InitialPath(sched.Host, sched.Flow) int { return 0 }

// TestFigure1Convergence reproduces the toy example of §2.2: three
// elephant flows all forced through core1. DARD's selfish scheduling must
// spread them so every flow ends on a different core and each runs at
// full line rate after convergence.
func TestFigure1Convergence(t *testing.T) {
	ft := fatTree(t)
	// Pod-0 hosts: 0..3 (ToR1: 0,1; ToR2: 2,3). Pod-1 hosts: 4..7.
	// Pod-2 hosts: 8..11. Mirrors Flow0 (E11->E21), Flow1 (E13->E24),
	// Flow2 (E31->E22): all three initially share core1 and the
	// core1->pod1 links, giving a min BoNF of 1/3.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: 30e9, Arrival: 0},
		{ID: 1, Src: 2, Dst: 6, SizeBits: 30e9, Arrival: 0},
		{ID: 2, Src: 8, Dst: 5, SizeBits: 30e9, Arrival: 0},
	}
	ctl := New(Options{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1, Delta: 1e6})
	s, err := flowsim.New(flowsim.Config{
		Net:         ft,
		Controller:  path0Controller{ctl},
		Arrivals:    workload.List(flows),
		Seed:        1,
		ElephantAge: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatalf("%d flows unfinished", r.Unfinished)
	}
	if ctl.Shifts < 2 {
		t.Errorf("DARD made %d shifts, want >= 2 to break the collision", ctl.Shifts)
	}
	// Colliding on one core, each flow would run at ~1/3 Gbps: 90 s.
	// After convergence each flow is alone: 30 Gb at 1 Gbps, plus the
	// pre-convergence penalty. Anything under 45 s demonstrates the
	// collision was broken.
	for _, f := range r.Flows {
		if f.TransferTime > 45 {
			t.Errorf("flow %d took %.1f s; collision not resolved", f.ID, f.TransferTime)
		}
	}
	// Final paths must be pairwise disjoint in cores.
	used := make(map[int]bool)
	for _, f := range r.Flows {
		if used[f.FinalPathIdx] {
			t.Errorf("two flows ended on the same core path %d", f.FinalPathIdx)
		}
		used[f.FinalPathIdx] = true
	}
}

// TestSelfishScheduleRule unit-tests Algorithm 1's decision rule against
// hand-built path state and flow vectors.
func TestSelfishScheduleRule(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: 40e9, Arrival: 0},
	}
	ctl := New(Options{Delta: 10e6, QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 0.1})
	var checked bool
	probe := &hookController{Controller: ctl, hook: func(s *flowsim.Sim) {
		h := ctl.hosts[s.Flow(0).Src]
		if h == nil || len(h.monitors) != 1 {
			return
		}
		var m *monitor
		for _, mm := range h.monitors {
			m = mm
		}
		// Run the pending fold first, so selfishSchedule reads the
		// hand-built vectors below instead of refolding over them.
		m.materialize()
		if m.pv == nil {
			return
		}
		checked = true

		f := s.Flow(0)
		// Case 1: target path clearly better -> shift.
		m.pv = []PathState{
			{Bandwidth: 1e9, Flows: 3, BoNF: 1e9 / 3},
			{Bandwidth: 1e9, Flows: 1, BoNF: 1e9},
			{Bandwidth: 1e9, Flows: 0, BoNF: math.Inf(1)},
			{Bandwidth: 1e9, Flows: 2, BoNF: 0.5e9},
		}
		if err := s.SetPath(f, 0); err != nil {
			t.Fatal(err)
		}
		before := ctl.Shifts
		ctl.selfishSchedule(s, m)
		if ctl.Shifts != before+1 {
			t.Error("case 1: expected a shift to the empty path")
		}
		if f.PathIdx != 2 {
			t.Errorf("case 1: flow moved to path %d, want 2 (max BoNF)", f.PathIdx)
		}

		// Case 2: improvement below delta -> no shift. The flow sits on
		// path 2; estimation for path 1 is 1e9/2 = 0.5e9, its own BoNF
		// 0.55e9: est - min < 0.
		m.pv = []PathState{
			{Bandwidth: 1e9, Flows: 2, BoNF: 0.5e9},
			{Bandwidth: 1e9, Flows: 1, BoNF: 1e9},
			{Bandwidth: 1e9, Flows: 1, BoNF: 0.55e9},
			{Bandwidth: 1e9, Flows: 2, BoNF: 0.5e9},
		}
		before = ctl.Shifts
		ctl.selfishSchedule(s, m)
		if ctl.Shifts != before {
			t.Error("case 2: shift accepted although estimation does not beat delta")
		}

		// Case 3: the most congested path is inactive (FV=0 there); the
		// host can only shift off paths it uses (§2.5).
		m.pv = []PathState{
			{Bandwidth: 1e9, Flows: 10, BoNF: 0.1e9}, // most congested, not ours
			{Bandwidth: 1e9, Flows: 1, BoNF: 1e9},
			{Bandwidth: 1e9, Flows: 4, BoNF: 0.25e9}, // ours (path 2)
			{Bandwidth: 1e9, Flows: 0, BoNF: math.Inf(1)},
		}
		before = ctl.Shifts
		ctl.selfishSchedule(s, m)
		if ctl.Shifts != before+1 {
			t.Error("case 3: expected shift from our path 2 to the empty path 3")
		}
		if f.PathIdx != 3 {
			t.Errorf("case 3: flow on path %d, want 3", f.PathIdx)
		}
	}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: probe, Arrivals: workload.List(flows), Seed: 2, ElephantAge: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("hook never saw an assembled monitor")
	}
}

// hookController runs a callback on a short timer loop so tests can poke
// internal state mid-run.
type hookController struct {
	*Controller
	hook func(s *flowsim.Sim)
	done bool
}

func (h *hookController) Start(s *flowsim.Sim) {
	var tick func()
	tick = func() {
		if h.done {
			return
		}
		h.hook(s)
		h.done = true // run once after monitors exist
		s.After(0.7, tick)
	}
	s.After(0.7, tick)
}

func TestMonitorLifecycle(t *testing.T) {
	ft := fatTree(t)
	// Two elephants from host 0 to hosts under the same remote ToR share
	// one monitor; a third to another ToR gets its own.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: 3e9, Arrival: 0},
		{ID: 1, Src: 0, Dst: 5, SizeBits: 3e9, Arrival: 0},
		{ID: 2, Src: 0, Dst: 6, SizeBits: 3e9, Arrival: 0},
		{ID: 3, Src: 0, Dst: 1, SizeBits: 3e9, Arrival: 0}, // same ToR: no monitor
	}
	ctl := New(Options{})
	var midMonitors, sameToRMonitors int
	probe := &hookController{Controller: ctl, hook: func(s *flowsim.Sim) {
		if h := ctl.hosts[s.Flow(0).Src]; h != nil {
			midMonitors = len(h.monitors)
			for key, m := range h.monitors {
				if key == monitorKey(s.Flow(3).DstToR) {
					sameToRMonitors++
				}
				if key == monitorKey(s.Flow(0).DstToR) && len(m.flows) != 2 {
					t.Errorf("shared monitor tracks %d flows, want 2", len(m.flows))
				}
			}
		}
	}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: probe, Arrivals: workload.List(flows), Seed: 3, ElephantAge: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if midMonitors != 2 {
		t.Errorf("host had %d monitors mid-run, want 2 (one per remote dst ToR)", midMonitors)
	}
	if sameToRMonitors != 0 {
		t.Error("same-ToR flow must not create a monitor")
	}
	// All flows done: monitors released.
	if h := ctl.hosts[s.Flow(0).Src]; h != nil && len(h.monitors) != 0 {
		t.Errorf("monitors not released at drain: %d left", len(h.monitors))
	}
}

func TestControlMessageAccounting(t *testing.T) {
	ft := fatTree(t)
	// Inter-pod monitor on p=4 queries: srcToR + 2 src aggrs + 4 cores +
	// 2 dst aggrs = 9 switches; 80 bytes per switch per tick.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 4, SizeBits: 5e9, Arrival: 0}}
	ctl := New(Options{QueryInterval: 1})
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: ctl, Arrivals: workload.List(flows), Seed: 4, ElephantAge: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.ControlBytes == 0 {
		t.Fatal("no control bytes recorded")
	}
	// Each of the 9 switches on a p=4 fat-tree has 4 exit ports, so one
	// tick costs 9 x (48-byte query + 16-byte reply header + 4 x 16-byte
	// port records) of marshaled control traffic.
	perTick := 9.0 * (48 + 16 + 4*16)
	if rem := math.Mod(r.ControlBytes, perTick); rem != 0 {
		t.Errorf("control bytes %g not a multiple of per-tick cost %g", r.ControlBytes, perTick)
	}
	// Flow runs 5 s; the monitor exists from ~0.5 s: expect ~4-5 ticks.
	ticks := r.ControlBytes / perTick
	if ticks < 3 || ticks > 6 {
		t.Errorf("query ticks = %g, want ~4-5", ticks)
	}
}

func TestDARDBeatsStaticCollision(t *testing.T) {
	ft := fatTree(t)
	var flows []workload.Flow
	// Four cross-pod elephants from distinct source hosts that ECMP/static
	// would pile onto few paths.
	for i := 0; i < 4; i++ {
		flows = append(flows, workload.Flow{
			ID: i, Src: i, Dst: 8 + i, SizeBits: 20e9, Arrival: 0,
		})
	}
	runWith := func(c sched.Policy) float64 {
		s, err := flowsim.New(flowsim.Config{Net: ft, Controller: c, Arrivals: workload.List(flows), Seed: 5, ElephantAge: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Unfinished > 0 {
			t.Fatal("unfinished flows")
		}
		return r.TransferTimes().Mean()
	}
	static := runWith(sched.Static{})
	dardT := runWith(New(Options{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1}))
	if dardT >= static {
		t.Errorf("DARD mean transfer %.1f s not better than static collision %.1f s", dardT, static)
	}
}

func TestOptionsDefaults(t *testing.T) {
	c := New(Options{})
	o := c.Options()
	if o.QueryInterval != DefaultQueryInterval ||
		o.ScheduleInterval != DefaultScheduleInterval ||
		o.ScheduleJitter != DefaultScheduleJitter ||
		o.Delta != DefaultDelta {
		t.Errorf("defaults not applied: %+v", o)
	}
	c2 := New(Options{DisableJitter: true, Delta: -5})
	if c2.Options().ScheduleJitter != 0 {
		t.Error("DisableJitter ignored")
	}
	if c2.Options().Delta != 0 {
		t.Error("negative delta should clamp to 0")
	}
}

// TestLittleOscillation is the paper's stability claim in miniature: under
// a random workload, flows switch paths only a handful of times (90% no
// more than 3 in the paper's Figure 6).
func TestLittleOscillation(t *testing.T) {
	ft := fatTree(t)
	l := workload.NewLayout(ft)
	src, err := workload.NewOpenPoisson(l, workload.Config{
		Pattern:     workload.Random{L: l},
		RatePerHost: 0.5,
		Duration:    30,
		SizeBytes:   64 << 20, // 64 MB
		Seed:        6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(Options{})
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: ctl, Arrivals: src, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	sw := r.PathSwitchCounts()
	if sw.N() == 0 {
		t.Fatal("no completed flows")
	}
	if p90 := sw.Quantile(0.9); p90 > 3 {
		t.Errorf("90th percentile path switches = %g, want <= 3", p90)
	}
	if max := sw.Max(); max > 8 {
		t.Errorf("max path switches = %g, suspicious oscillation", max)
	}
}
