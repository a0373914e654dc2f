package sched_test

import (
	"testing"

	"dard/internal/flowsim"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// countingPolicy is a sched.Policy and sched.Observer that counts the
// callbacks an engine makes and checks each flow's sequence: one
// initial path, one arrival, at most one elephant classification, and
// one departure after its arrival.
type countingPolicy struct {
	t                                *testing.T
	initial, arrived, elephant, gone int
	arrivedIDs, elephantIDs, goneIDs map[int]bool
}

func newCountingPolicy(t *testing.T) *countingPolicy {
	return &countingPolicy{
		t:           t,
		arrivedIDs:  map[int]bool{},
		elephantIDs: map[int]bool{},
		goneIDs:     map[int]bool{},
	}
}

func (c *countingPolicy) Name() string { return "counting" }

func (c *countingPolicy) InitialPath(h sched.Host, f sched.Flow) int {
	c.initial++
	return sched.ECMP{}.InitialPath(h, f)
}

func (c *countingPolicy) Arrived(h sched.Host, f sched.Flow) {
	c.arrived++
	if c.arrivedIDs[f.ID] {
		c.t.Errorf("flow %d arrived twice", f.ID)
	}
	c.arrivedIDs[f.ID] = true
	if got, ok := h.FlowByID(f.ID); !ok || got != f {
		c.t.Errorf("FlowByID(%d) = %+v, %v on arrival; want %+v", f.ID, got, ok, f)
	}
	if !h.FlowActive(f.ID) {
		c.t.Errorf("flow %d not active on arrival", f.ID)
	}
}

func (c *countingPolicy) Elephant(h sched.Host, f sched.Flow) {
	c.elephant++
	if c.elephantIDs[f.ID] {
		c.t.Errorf("flow %d classified as an elephant twice", f.ID)
	}
	c.elephantIDs[f.ID] = true
	if !h.FlowActive(f.ID) {
		c.t.Errorf("flow %d classified after its departure", f.ID)
	}
}

func (c *countingPolicy) Departed(h sched.Host, f sched.Flow) {
	c.gone++
	if !c.arrivedIDs[f.ID] || c.goneIDs[f.ID] {
		c.t.Errorf("flow %d departed without arriving, or twice", f.ID)
	}
	c.goneIDs[f.ID] = true
	if h.FlowActive(f.ID) {
		c.t.Errorf("flow %d still active on departure", f.ID)
	}
}

// TestPolicyLifecycleBothEngines runs one counting policy on the same
// small fat-tree workload on both engines: every flow gets one initial
// path, arrives once and departs once, and at most every flow is
// classified as an elephant. The workload mixes long and short flows
// so some, but not all, cross the detection threshold.
func TestPolicyLifecycleBothEngines(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	var flows []workload.Flow
	for i := 0; i < 12; i++ {
		size := 1e6 // 10 ms alone on a 100 Mbps path
		if i%3 == 0 {
			size = 40e6 // 0.4 s alone: an elephant at any fair share
		}
		flows = append(flows, workload.Flow{
			ID: i, Src: i % 16, Dst: (i + 5) % 16, SizeBits: size, Arrival: 0.05 * float64(i),
		})
	}
	const elephantAge = 0.1
	engines := []struct {
		name string
		run  func(p sched.Policy) (unfinished int, err error)
	}{
		{"flow", func(p sched.Policy) (int, error) {
			s, err := flowsim.New(flowsim.Config{Net: ft, Controller: p, Arrivals: workload.List(flows), Seed: 1, ElephantAge: elephantAge})
			if err != nil {
				return 0, err
			}
			r, err := s.Run()
			if err != nil {
				return 0, err
			}
			return r.Unfinished, nil
		}},
		{"packet", func(p sched.Policy) (int, error) {
			rt, err := psim.NewRuntime(psim.Config{Topo: ft, Policy: p, Arrivals: workload.List(flows), Seed: 1, ElephantAge: elephantAge, MaxTime: 60})
			if err != nil {
				return 0, err
			}
			r, err := rt.Run()
			if err != nil {
				return 0, err
			}
			return r.Unfinished, nil
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			c := newCountingPolicy(t)
			unfinished, err := e.run(c)
			if err != nil {
				t.Fatal(err)
			}
			if unfinished != 0 {
				t.Fatalf("%d flows unfinished", unfinished)
			}
			n := len(flows)
			if c.initial != n || c.arrived != n || c.gone != n {
				t.Errorf("InitialPath/Arrived/Departed = %d/%d/%d, want %d each", c.initial, c.arrived, c.gone, n)
			}
			if c.elephant > n {
				t.Errorf("Elephant fired %d times for %d flows", c.elephant, n)
			}
			if c.elephant == 0 || c.elephant == n {
				t.Errorf("Elephant fired %d times; the workload should classify some but not all of %d flows", c.elephant, n)
			}
		})
	}
}
