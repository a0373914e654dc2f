package psim

import (
	"math"
	"testing"

	"dard/internal/dard"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

func fatTree(t *testing.T) *topology.FatTree {
	t.Helper()
	// 100 Mbps testbed-style links, as in §3.1.
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func runPolicy(t *testing.T, pol sched.Policy, flows []workload.Flow, seed int64) *Results {
	t.Helper()
	ft := fatTree(t)
	rt, err := NewRuntime(Config{
		Topo: ft, Policy: pol, Arrivals: workload.List(flows), Seed: seed, ElephantAge: 0.5, MaxTime: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mb(n float64) float64 { return n * 8 * (1 << 20) }

func TestECMPCompletesWorkload(t *testing.T) {
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(2), Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: mb(2), Arrival: 0.1},
		{ID: 2, Src: 4, Dst: 12, SizeBits: mb(2), Arrival: 0.2},
	}
	r := runPolicy(t, sched.ECMP{}, flows, 1)
	if r.Unfinished != 0 {
		t.Fatalf("%d unfinished flows", r.Unfinished)
	}
	if r.Policy != "ECMP" {
		t.Errorf("policy name %q", r.Policy)
	}
	for _, f := range r.Flows {
		if f.PathSwitches != 0 {
			t.Errorf("ECMP flow %d switched paths", f.ID)
		}
	}
}

func TestPVLBRepicksAtPacketLevel(t *testing.T) {
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: mb(20), Arrival: 0}}
	r := runPolicy(t, &sched.PVLB{Interval: 0.3}, flows, 2)
	if r.Unfinished != 0 {
		t.Fatal("flow unfinished")
	}
	if r.Flows[0].PathSwitches == 0 {
		t.Error("pVLB never switched a ~2 s flow with a 0.3 s interval")
	}
}

// TestDARDPacketLevelBreaksCollision pins four elephants through one core
// and checks the packet-level DARD monitors unpin them.
type pinnedDARD struct{ *dard.Controller }

func (pinnedDARD) InitialPath(sched.Host, sched.Flow) int { return 0 }

func TestDARDPacketLevelBreaksCollision(t *testing.T) {
	// All four flows cross core1's link into pod 1: a 4-way collision
	// at 25 Mbps each when pinned.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: mb(40), Arrival: 0},
		{ID: 1, Src: 2, Dst: 6, SizeBits: mb(40), Arrival: 0},
		{ID: 2, Src: 8, Dst: 5, SizeBits: mb(40), Arrival: 0},
		{ID: 3, Src: 10, Dst: 7, SizeBits: mb(40), Arrival: 0},
	}
	d := dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, Delta: 1e6})
	rECMP := runPolicy(t, pinnedDARD{dard.New(dard.Options{ScheduleInterval: 1e6})}, flows, 3)
	rDARD := runPolicy(t, pinnedDARD{d}, flows, 3)
	if rDARD.Unfinished != 0 {
		t.Fatal("DARD run unfinished")
	}
	if d.Shifts == 0 {
		t.Fatal("packet-level DARD made no shifts")
	}
	// 40 MB at 25 Mbps (4-way collision) ~ 13.4 s; spread over four
	// cores, ~3.4 s plus detection and convergence. Require a clear win.
	got, pinnedMean := rDARD.TransferTimes().Mean(), rECMP.TransferTimes().Mean()
	if got >= pinnedMean*0.75 {
		t.Errorf("DARD mean %.2f s not clearly better than pinned %.2f s", got, pinnedMean)
	}
}

func TestElephantCountsConsistent(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(4), Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: mb(4), Arrival: 0},
	}
	rt, err := NewRuntime(Config{Topo: ft, Policy: sched.ECMP{}, Arrivals: workload.List(flows), Seed: 4, ElephantAge: 0.2, MaxTime: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// After drain, every elephant count must return to zero.
	for l := 0; l < ft.Graph().NumLinks(); l++ {
		if n := rt.ElephantsOnLink(topology.LinkID(l)); n != 0 {
			t.Fatalf("link %d still has %d elephants after drain", l, n)
		}
	}
}

func TestRuntimeValidation(t *testing.T) {
	ft := fatTree(t)
	if _, err := NewRuntime(Config{Policy: sched.ECMP{}}); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := NewRuntime(Config{Topo: ft}); err == nil {
		t.Error("nil policy should fail")
	}
	bad := []workload.Flow{{ID: 0, Src: 0, Dst: 0, SizeBits: 1}}
	if _, err := runErr(Config{Topo: ft, Policy: sched.ECMP{}, Arrivals: workload.List(bad)}); err == nil {
		t.Error("self flow should fail")
	}
}

// runErr builds a runtime on cfg and runs it, returning the runtime (nil
// if NewRuntime failed) and the first error.
func runErr(cfg Config) (*Runtime, error) {
	rt, err := NewRuntime(cfg)
	if err == nil {
		_, err = rt.Run()
	}
	return rt, err
}

// TestRuntimeRejectsBadBatch pins that the run checks each flow it pulls
// with the flow engine's predicate: each of these once passed NewRuntime
// and then panicked in Run (a sparse ID indexes past the flow table) or
// ended as an unfinished flow (a NaN size). A bad flow is found as the
// run starts, or as the flow before it arrives, and stops the run there.
func TestRuntimeRejectsBadBatch(t *testing.T) {
	ft := fatTree(t)
	ok := workload.Flow{ID: 0, Src: 0, Dst: 8, SizeBits: mb(1), Arrival: 0}
	cases := []struct {
		name  string
		flows []workload.Flow
	}{
		{"sparse IDs", []workload.Flow{ok, {ID: 5, Src: 1, Dst: 9, SizeBits: mb(1), Arrival: 0.1}}},
		{"NaN size", []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: math.NaN(), Arrival: 0}}},
		{"infinite size", []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: math.Inf(1), Arrival: 0}}},
		{"arrivals out of order", []workload.Flow{
			{ID: 0, Src: 0, Dst: 8, SizeBits: mb(1), Arrival: 1},
			{ID: 1, Src: 1, Dst: 9, SizeBits: mb(1), Arrival: 0.5},
		}},
		{"NaN arrival", []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: mb(1), Arrival: math.NaN()}}},
		{"host out of range", []workload.Flow{{ID: 0, Src: 0, Dst: 99, SizeBits: mb(1), Arrival: 0}}},
		{"self flow behind a transfer", []workload.Flow{
			{ID: 0, Src: 0, Dst: 8, SizeBits: mb(8), Arrival: 0},
			{ID: 1, Src: 1, Dst: 9, SizeBits: mb(1), Arrival: 0.25},
			{ID: 2, Src: 4, Dst: 4, SizeBits: mb(1), Arrival: 0.5},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := runErr(Config{Topo: ft, Policy: sched.ECMP{}, Arrivals: workload.List(tc.flows), MaxTime: 10})
			if err == nil {
				t.Fatal("invalid workload accepted")
			}
			found := 0.0
			if n := len(tc.flows); n > 1 {
				found = tc.flows[n-2].Arrival
			}
			if rt != nil && rt.Now() != found {
				t.Errorf("the run went on to t=%g after finding the bad flow at t=%g", rt.Now(), found)
			}
		})
	}
}

func TestSetPathValidation(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: mb(8), Arrival: 0}}
	rt, err := NewRuntime(Config{Topo: ft, Policy: sched.ECMP{}, Arrivals: workload.List(flows), Seed: 5, MaxTime: 300})
	if err != nil {
		t.Fatal(err)
	}
	var failed, noop bool
	rt.After(0.5, func() {
		if rt.flow(0) == nil {
			t.Fatal("flow not arrived")
		}
		if err := rt.SetFlowPath(0, 99); err != nil {
			failed = true
		}
		if err := rt.SetFlowPath(0, rt.FlowPath(0)); err == nil {
			noop = true
		}
		if err := rt.SetFlowPath(7, 0); err == nil {
			t.Error("SetFlowPath accepted an unknown flow")
		}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !failed || !noop {
		t.Error("SetPath validation not exercised")
	}
}
