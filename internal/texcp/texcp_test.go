package texcp

import (
	"testing"

	"dard/internal/dard"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

func run(t *testing.T, pol sched.Policy, flows []workload.Flow, seed int64) *psim.Results {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := psim.NewRuntime(psim.Config{
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

func TestTeXCPCompletesAndSplits(t *testing.T) {
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(8), Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: mb(8), Arrival: 0},
	}
	r := run(t, New(), flows, 1)
	if r.Unfinished != 0 {
		t.Fatalf("%d unfinished", r.Unfinished)
	}
	if r.Policy != "TeXCP" {
		t.Errorf("policy = %q", r.Policy)
	}
	if r.ControlBytes == 0 {
		t.Error("no probe bytes recorded")
	}
}

// TestTeXCPHigherRetxThanDARD is Figure 14's claim: per-packet splitting
// reorders segments and triggers more retransmissions than DARD's sticky
// single-path flows under the same stride-style workload.
func TestTeXCPHigherRetxThanDARD(t *testing.T) {
	var flows []workload.Flow
	for i := 0; i < 8; i++ {
		flows = append(flows, workload.Flow{
			ID: i, Src: i, Dst: (i + 8) % 16, SizeBits: mb(6), Arrival: float64(i) * 0.05,
		})
	}
	texcp := run(t, New(), flows, 2)
	dardR := run(t, dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, Delta: 1e6}), flows, 2)
	if texcp.Unfinished != 0 || dardR.Unfinished != 0 {
		t.Fatalf("unfinished flows: texcp=%d dard=%d", texcp.Unfinished, dardR.Unfinished)
	}
	tRate := texcp.RetxRates().Mean()
	dRate := dardR.RetxRates().Mean()
	if tRate <= dRate {
		t.Errorf("TeXCP retx rate %.4f should exceed DARD's %.4f (packet-level reordering)", tRate, dRate)
	}
}

func TestTeXCPWeightsAdaptAwayFromLoad(t *testing.T) {
	// A long-running background flow pinned to path 0 plus a TeXCP flow
	// between the same ToR pair: the agent should down-weight path 0.
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	pol := New()
	flows := []workload.Flow{
		{ID: 0, Src: 1, Dst: 9, SizeBits: mb(30), Arrival: 0}, // background
		{ID: 1, Src: 0, Dst: 8, SizeBits: mb(10), Arrival: 0.2},
	}
	rt, err := psim.NewRuntime(psim.Config{
		Topo: ft, Policy: &pinned{Policy: pol}, Arrivals: workload.List(flows), Seed: 3, ElephantAge: 0.5, MaxTime: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Flow 0 (1->9) and flow 1 (0->8) share the same ToR pair, so one
	// agent balanced both; its weights should not be stuck uniform.
	if len(pol.agents) == 0 {
		t.Fatal("no TeXCP agents created")
	}
	for _, a := range pol.agents {
		minW, maxW := a.weights[0], a.weights[0]
		for _, w := range a.weights {
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		if maxW/minW < 1.1 {
			t.Errorf("agent weights never adapted: %v", a.weights)
		}
	}
}

// pinned forces flow 0 to path 0 while keeping TeXCP behaviour for the
// rest (flow 0 also gets a per-packet router, so pin via InitialPath and
// drop its router).
type pinned struct {
	*Policy
}

func (p *pinned) InitialPath(h sched.Host, f sched.Flow) int {
	if f.ID == 0 {
		return 0
	}
	return p.Policy.InitialPath(h, f)
}

func (p *pinned) PacketRoute(rt *psim.Runtime, f *psim.FlowState) func() []topology.LinkID {
	if f.ID == 0 {
		return nil // background flow stays on its pinned path
	}
	return p.Policy.PacketRoute(rt, f)
}
