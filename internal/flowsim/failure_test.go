package flowsim

import (
	"math"
	"testing"

	"dard/internal/topology"
	"dard/internal/workload"
)

func TestLinkFailureStrandsStaticFlow(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 4e9, Arrival: 0}}
	// Fail the first fabric link of path 0 at t=1 (3 Gb still unsent).
	path := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8])).AppendLinks(0, nil)
	s, err := New(Config{
		Net:        ft,
		Controller: &staticController{},
		Arrivals:   workload.List(flows),
		LinkEvents: []topology.LinkEvent{{At: 1, Link: path[1], Down: true}},
		MaxTime:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 1 {
		t.Fatalf("static flow should strand on the failed link, unfinished = %d", r.Unfinished)
	}
}

func TestLinkRepairResumesFlow(t *testing.T) {
	ft := testFatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 4e9, Arrival: 0}}
	path := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8])).AppendLinks(0, nil)
	s, err := New(Config{
		Net:        ft,
		Controller: &staticController{},
		Arrivals:   workload.List(flows),
		LinkEvents: []topology.LinkEvent{
			{At: 1, Link: path[1], Down: true},
			{At: 3, Link: path[1], Down: false},
		},
		MaxTime: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatal("flow should finish after repair")
	}
	// 1s of transfer + 2s outage + 3s remaining = 6s.
	if got := r.Flows[0].TransferTime; math.Abs(got-6.0) > 1e-6 {
		t.Errorf("transfer time = %g, want 6.0", got)
	}
}

func TestLinkEventValidation(t *testing.T) {
	ft := testFatTree(t)
	if _, err := New(Config{
		Net: ft, Controller: &staticController{},
		LinkEvents: []topology.LinkEvent{{At: 1, Link: 9999, Down: true}},
	}); err == nil {
		t.Error("out-of-range link should fail")
	}
	if _, err := New(Config{
		Net: ft, Controller: &staticController{},
		LinkEvents: []topology.LinkEvent{{At: -1, Link: 0, Down: true}},
	}); err == nil {
		t.Error("negative event time should fail")
	}
}

func TestLinkCapacityEffective(t *testing.T) {
	ft := testFatTree(t)
	s, err := New(Config{Net: ft, Controller: &staticController{}})
	if err != nil {
		t.Fatal(err)
	}
	l := topology.LinkID(0)
	if got := s.LinkCapacity(l); got != 1e9 {
		t.Errorf("nominal capacity = %g", got)
	}
	s.SetLinkDown(l, true)
	if got := s.LinkCapacity(l); got != 0 {
		t.Errorf("failed capacity = %g, want 0", got)
	}
	s.SetLinkDown(l, false)
	if got := s.LinkCapacity(l); got != 1e9 {
		t.Errorf("repaired capacity = %g", got)
	}
}
