package hedera

import (
	"math"
	"testing"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

func TestEstimateDemandsSingleFlow(t *testing.T) {
	d := EstimateDemands(map[Pair]int{{Src: 0, Dst: 1}: 1})
	if got := d[Pair{Src: 0, Dst: 1}]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("single flow demand = %g, want 1.0", got)
	}
}

func TestEstimateDemandsSenderLimited(t *testing.T) {
	// One source fanning out to two receivers: each flow gets half the
	// sender NIC.
	d := EstimateDemands(map[Pair]int{
		{Src: 0, Dst: 1}: 1,
		{Src: 0, Dst: 2}: 1,
	})
	for k, v := range d {
		if math.Abs(v-0.5) > 1e-9 {
			t.Errorf("demand[%v] = %g, want 0.5", k, v)
		}
	}
}

func TestEstimateDemandsReceiverLimited(t *testing.T) {
	// Three sources into one receiver: receiver NIC caps each at 1/3.
	d := EstimateDemands(map[Pair]int{
		{Src: 0, Dst: 3}: 1,
		{Src: 1, Dst: 3}: 1,
		{Src: 2, Dst: 3}: 1,
	})
	for k, v := range d {
		if math.Abs(v-1.0/3.0) > 1e-9 {
			t.Errorf("demand[%v] = %g, want 1/3", k, v)
		}
	}
}

func TestEstimateDemandsMixed(t *testing.T) {
	// Source 0 sends to 1 and 2; sources 3 and 4 also send to 2.
	// Sender phase: 0's flows get 0.5 each; 3,4's get 1.0.
	// Receiver 2 sees 0.5+1+1 = 2.5 > 1: equal share among its three
	// flows is 1/3; 0->2 is sender-limited at 0.5 > 1/3, so all three
	// converge to 1/3. Then 0 redistributes: 0->1 rises to 2/3.
	d := EstimateDemands(map[Pair]int{
		{Src: 0, Dst: 1}: 1,
		{Src: 0, Dst: 2}: 1,
		{Src: 3, Dst: 2}: 1,
		{Src: 4, Dst: 2}: 1,
	})
	if got := d[Pair{Src: 0, Dst: 2}]; math.Abs(got-1.0/3.0) > 1e-6 {
		t.Errorf("0->2 demand = %g, want 1/3", got)
	}
	if got := d[Pair{Src: 3, Dst: 2}]; math.Abs(got-1.0/3.0) > 1e-6 {
		t.Errorf("3->2 demand = %g, want 1/3", got)
	}
	if got := d[Pair{Src: 0, Dst: 1}]; math.Abs(got-2.0/3.0) > 1e-6 {
		t.Errorf("0->1 demand = %g, want 2/3", got)
	}
}

func TestEstimateDemandsMultipleFlowsPerPair(t *testing.T) {
	// Two flows on one pair split the sender NIC.
	d := EstimateDemands(map[Pair]int{{Src: 0, Dst: 1}: 2})
	if got := d[Pair{Src: 0, Dst: 1}]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("per-flow demand = %g, want 0.5", got)
	}
}

func TestEstimateDemandsEmpty(t *testing.T) {
	if d := EstimateDemands(nil); len(d) != 0 {
		t.Errorf("empty input should give empty output, got %v", d)
	}
}

func fatTree(t *testing.T) *topology.FatTree {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// path0 pins initial assignments to path 0 to force a collision the
// annealer must fix.
type path0 struct{ *Controller }

func (path0) InitialPath(sched.Host, sched.Flow) int { return 0 }

func TestAnnealingBreaksCollision(t *testing.T) {
	ft := fatTree(t)
	// Four cross-pod elephants from four distinct sources to four
	// distinct destinations, all pinned to core1: a permanent 4-way
	// collision that the annealer should spread over the 4 cores.
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: 30e9, Arrival: 0},
		{ID: 1, Src: 2, Dst: 6, SizeBits: 30e9, Arrival: 0},
		{ID: 2, Src: 8, Dst: 12, SizeBits: 30e9, Arrival: 0},
		{ID: 3, Src: 10, Dst: 14, SizeBits: 30e9, Arrival: 0},
	}
	ctl := New(Options{Interval: 2})
	s, err := flowsim.New(flowsim.Config{
		Net: ft, Controller: path0{ctl}, Flows: flows, Seed: 7, ElephantAge: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Rounds == 0 {
		t.Fatal("controller never ran a round")
	}
	if ctl.Moves == 0 {
		t.Fatal("annealer applied no moves despite a 4-way collision")
	}
	// Pinned forever, each flow would take 120 s (30 Gb at 1/4 Gbps on
	// the shared core uplink). A working annealer resolves it within a
	// couple of rounds.
	for _, f := range r.Flows {
		if f.TransferTime > 60 {
			t.Errorf("flow %d took %.1f s; collision not resolved", f.ID, f.TransferTime)
		}
	}
	// Flows sharing a pod pair must end on distinct cores (flows across
	// different pod pairs can reuse a core index without sharing links).
	if r.Flows[0].FinalPathIdx == r.Flows[1].FinalPathIdx {
		t.Error("pod0->pod1 flows still share a core")
	}
	if r.Flows[2].FinalPathIdx == r.Flows[3].FinalPathIdx {
		t.Error("pod2->pod3 flows still share a core")
	}
}

func TestControlOverheadGrowsWithFlows(t *testing.T) {
	ft := fatTree(t)
	mkFlows := func(n int) []workload.Flow {
		var flows []workload.Flow
		for i := 0; i < n; i++ {
			flows = append(flows, workload.Flow{
				ID: i, Src: i % 16, Dst: (i + 4) % 16, SizeBits: 8e9, Arrival: float64(i) * 0.01,
			})
		}
		return flows
	}
	runBytes := func(n int) float64 {
		s, err := flowsim.New(flowsim.Config{
			Net: ft, Controller: New(Options{Interval: 2}), Flows: mkFlows(n), Seed: 8, ElephantAge: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.ControlBytes
	}
	small, large := runBytes(4), runBytes(32)
	if large <= small {
		t.Errorf("centralized overhead should grow with flow count: %g !> %g", large, small)
	}
}

func TestHederaOnClos(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{DI: 4, DA: 4, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewLayout(cl)
	flows, err := workload.Generate(l, workload.Config{
		Pattern: Stride(l), RatePerHost: 0.5, Duration: 10, SizeBytes: 32 << 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := flowsim.New(flowsim.Config{Net: cl, Controller: New(Options{}), Flows: flows, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Errorf("%d unfinished flows on Clos", r.Unfinished)
	}
}

// Stride builds a cross-pod stride pattern for a layout.
func Stride(l *workload.Layout) workload.Pattern {
	return workload.Stride{N: l.NumHosts, Step: l.HostsPerPod()}
}

func TestSAComparableToDARDUnderStride(t *testing.T) {
	ft := fatTree(t)
	l := workload.NewLayout(ft)
	flows, err := workload.Generate(l, workload.Config{
		Pattern:     workload.Stride{N: l.NumHosts, Step: l.HostsPerPod()},
		RatePerHost: 0.3,
		Duration:    30,
		SizeBytes:   256 << 20, // ~2 s at line rate, so flows become elephants
		Seed:        10,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(ctl sched.Policy) float64 {
		s, err := flowsim.New(flowsim.Config{Net: ft, Controller: ctl, Flows: flows, Seed: 10, ElephantAge: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.TransferTimes().Mean()
	}
	ecmp := mean(sched.ECMP{})
	sa := mean(New(Options{Interval: 2}))
	// Centralized scheduling must beat random hashing under stride.
	if sa >= ecmp {
		t.Errorf("SA mean %.2f s not better than ECMP %.2f s under stride", sa, ecmp)
	}
}
