package psim

import (
	"testing"

	"dard/internal/dard"
	"dard/internal/topology"
	"dard/internal/workload"
)

// TestPacketEngineOnClos drives TCP flows over a Clos fabric with DARD at
// packet level: four-hop source routes through the (up, mid, down) triple.
func TestPacketEngineOnClos(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{DI: 4, DA: 4, HostsPerToR: 2, LinkCapacity: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewLayout(cl)
	src, err := workload.NewOpenPoisson(l, workload.Config{
		Pattern:     workload.Stride{N: l.NumHosts, Step: l.HostsPerPod()},
		RatePerHost: 0.3,
		Duration:    4,
		SizeBytes:   2 << 20,
		Seed:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(Config{
		Topo:        cl,
		Policy:      dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}),
		Arrivals:    src,
		Seed:        8,
		ElephantAge: 0.5,
		MaxTime:     120,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatalf("%d unfinished flows on Clos packet engine", r.Unfinished)
	}
}

// TestPacketEngineDeterministic: identical packet-level DARD runs give
// identical per-flow results.
func TestPacketEngineDeterministic(t *testing.T) {
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(4), Arrival: 0},
		{ID: 1, Src: 2, Dst: 10, SizeBits: mb(4), Arrival: 0.1},
		{ID: 2, Src: 4, Dst: 12, SizeBits: mb(4), Arrival: 0.2},
	}
	runOnce := func() *Results {
		ft := fatTree(t)
		rt, err := NewRuntime(Config{
			Topo:        ft,
			Policy:      dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}),
			Arrivals:    workload.List(flows),
			Seed:        31,
			ElephantAge: 0.25,
			MaxTime:     120,
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
	a, b := runOnce(), runOnce()
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("flow count differs")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs:\n%+v\n%+v", i, a.Flows[i], b.Flows[i])
		}
	}
	if a.ControlBytes != b.ControlBytes {
		t.Errorf("control bytes differ: %g vs %g", a.ControlBytes, b.ControlBytes)
	}
}
