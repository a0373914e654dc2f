package flowsim

import (
	"testing"

	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// TestDeterminism: identical configs yield identical per-flow outcomes.
func TestDeterminism(t *testing.T) {
	ft := testFatTree(t)
	l := workload.NewLayout(ft)
	src, err := workload.NewOpenPoisson(l, workload.Config{
		Pattern: workload.Random{L: l}, RatePerHost: 1, Duration: 10, SizeBytes: 32 << 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := workload.Drain(src)
	runOnce := func() *Results {
		s, err := New(Config{Net: ft, Controller: &staticController{pathIdx: func(s *Sim, f sched.Flow) int {
			return f.ID % 4
		}}, Arrivals: workload.List(flows), Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := runOnce(), runOnce()
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("different flow counts")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs between identical runs:\n%+v\n%+v", i, a.Flows[i], b.Flows[i])
		}
	}
}

// TestRunsOnClosAndThreeTier: the engine handles all three topology
// families end to end.
func TestRunsOnClosAndThreeTier(t *testing.T) {
	nets := []func() (topology.Network, error){
		func() (topology.Network, error) {
			return topology.NewClos(topology.ClosConfig{DI: 4, DA: 4, HostsPerToR: 2})
		},
		func() (topology.Network, error) {
			return topology.NewThreeTier(topology.ThreeTierConfig{NumPods: 2, AccessPerPod: 2, HostsPerAccess: 2})
		},
	}
	for _, build := range nets {
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		l := workload.NewLayout(net)
		src, err := workload.NewOpenPoisson(l, workload.Config{
			Pattern: workload.Random{L: l}, RatePerHost: 1, Duration: 5, SizeBytes: 16 << 20, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Net: net, Controller: &staticController{}, Arrivals: src, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", net.Name(), err)
		}
		if r.Unfinished != 0 {
			t.Errorf("%s: %d unfinished flows", net.Name(), r.Unfinished)
		}
	}
}

// TestConservation: every completed flow delivered exactly its size —
// rates integrate back to the transfer volume.
func TestConservation(t *testing.T) {
	ft := testFatTree(t)
	l := workload.NewLayout(ft)
	src, err := workload.NewOpenPoisson(l, workload.Config{
		Pattern:     workload.Stride{N: l.NumHosts, Step: l.HostsPerPod()},
		RatePerHost: 1.5, Duration: 8, SizeBytes: 32 << 20, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Net: ft, Controller: &staticController{}, Arrivals: src, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range r.Flows {
		if !f.Completed() {
			t.Fatalf("flow %d unfinished", f.ID)
		}
		// Transfer time can never beat the line rate.
		if f.TransferTime < f.SizeBits/1e9-1e-9 {
			t.Errorf("flow %d finished faster than line rate: %g s for %g bits", f.ID, f.TransferTime, f.SizeBits)
		}
	}
}
