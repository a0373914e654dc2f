// External test package: the policies run on the flow engine, which
// imports sched.
package sched_test

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

func TestECMPSpreadsFlows(t *testing.T) {
	ft := fatTree(t)
	// Many flows between the same inter-pod host pair should spread over
	// all 4 paths.
	var flows []workload.Flow
	for i := 0; i < 200; i++ {
		flows = append(flows, workload.Flow{ID: i, Src: 0, Dst: 8, SizeBits: 1e6, Arrival: float64(i)})
	}
	counts := make(map[int]int)
	probe := &probeController{inner: sched.ECMP{}, onAssign: func(idx int) { counts[idx]++ }}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: probe, Arrivals: workload.List(flows), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Fatalf("ECMP used %d paths, want 4: %v", len(counts), counts)
	}
	for idx, c := range counts {
		if c < 20 {
			t.Errorf("path %d only chosen %d/200 times: badly skewed hash", idx, c)
		}
	}
}

func TestECMPPermanentAssignment(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 5e9, Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: 5e9, Arrival: 0},
	}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: sched.ECMP{}, Arrivals: workload.List(flows), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Flows {
		if f.PathSwitches != 0 {
			t.Errorf("ECMP flow %d switched paths %d times, want 0", f.ID, f.PathSwitches)
		}
	}
}

func TestECMPSinglehPathShortcut(t *testing.T) {
	ft := fatTree(t)
	// Same-ToR flow has a single path; InitialPath must return 0.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 1, SizeBits: 1e9, Arrival: 0}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: sched.ECMP{}, Arrivals: workload.List(flows), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Flows[0].Completed() {
		t.Error("same-ToR flow did not complete")
	}
}

func TestPVLBRepicks(t *testing.T) {
	ft := fatTree(t)
	// A long flow with a short re-pick interval switches paths several
	// times but keeps making progress.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 10e9, Arrival: 0}} // 10 s alone
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: &sched.PVLB{Interval: 1}, Arrivals: workload.List(flows), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := r.Flows[0]
	if !f.Completed() {
		t.Fatal("flow did not complete")
	}
	if math.Abs(f.TransferTime-10.0) > 1e-6 {
		t.Errorf("transfer time = %g, want 10 (path switches must not lose bytes)", f.TransferTime)
	}
	if f.PathSwitches == 0 {
		t.Error("pVLB never re-picked in 10 s with a 1 s interval")
	}
	// With 4 paths, ~9 re-pick events, 3/4 switch probability each.
	if f.PathSwitches > 9 {
		t.Errorf("path switches = %d, expected at most 9", f.PathSwitches)
	}
}

func TestPVLBDefaultInterval(t *testing.T) {
	v := &sched.PVLB{}
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: v, Arrivals: workload.List(flows), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 1 s flow, 5 s default interval: no switches.
	if r.Flows[0].PathSwitches != 0 {
		t.Errorf("short flow switched %d times", r.Flows[0].PathSwitches)
	}
}

func TestPVLBSamePathNoSwitch(t *testing.T) {
	ft := fatTree(t)
	// Same-ToR flows have one path: the repick chain must not install.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 1, SizeBits: 10e9, Arrival: 0}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: &sched.PVLB{Interval: 0.5}, Arrivals: workload.List(flows), Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Flows[0].PathSwitches != 0 {
		t.Errorf("single-path flow switched %d times", r.Flows[0].PathSwitches)
	}
}

func TestStatic(t *testing.T) {
	ft := fatTree(t)
	// Two flows from different hosts both forced onto path 0 collide on
	// the shared aggr->core link; each gets 0.5 Gbps.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: 1e9, Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: 1e9, Arrival: 0},
	}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: sched.Static{}, Arrivals: workload.List(flows)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Flows {
		if math.Abs(f.TransferTime-2.0) > 1e-9 {
			t.Errorf("flow %d transfer time = %g, want 2.0 (collision)", f.ID, f.TransferTime)
		}
	}
}

// probeController wraps a policy to observe path assignments.
type probeController struct {
	inner    sched.Policy
	onAssign func(idx int)
}

func (p *probeController) Name() string { return p.inner.Name() }
func (p *probeController) InitialPath(h sched.Host, f sched.Flow) int {
	idx := p.inner.InitialPath(h, f)
	p.onAssign(idx)
	return idx
}

// pVLB's re-pick timers survive flow-engine checkpoints.
var _ flowsim.SnapshotController = (*sched.PVLB)(nil)
