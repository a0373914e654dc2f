package dard

import (
	"testing"

	"dard/internal/flowsim"
	"dard/internal/psim"
	"dard/internal/topology"
	"dard/internal/workload"
)

// TestPerFlowMonitorsAblation: per-flow monitors schedule the same shifts
// but cost strictly more control traffic than shared per-ToR-pair
// monitors — the justification for §2.4.1's sharing — on both engines.
func TestPerFlowMonitorsAblation(t *testing.T) {
	// Several concurrent elephants from one host to hosts under one
	// remote ToR: sharing collapses them into a single monitor.
	flows := func(sizeBits float64) []workload.Flow {
		return []workload.Flow{
			{ID: 0, Src: 0, Dst: 4, SizeBits: sizeBits, Arrival: 0},
			{ID: 1, Src: 0, Dst: 5, SizeBits: sizeBits, Arrival: 0},
			{ID: 2, Src: 0, Dst: 4, SizeBits: sizeBits, Arrival: 0.1},
			{ID: 3, Src: 0, Dst: 5, SizeBits: sizeBits, Arrival: 0.1},
		}
	}
	engines := []struct {
		name string
		// run executes the four flows under ctl and returns the run's
		// control bytes and unfinished count.
		run func(t *testing.T, ctl *Controller) (float64, int)
	}{
		{"flow", func(t *testing.T, ctl *Controller) (float64, int) {
			s, err := flowsim.New(flowsim.Config{
				Net: fatTree(t), Controller: ctl, Arrivals: workload.List(flows(8e9)), Seed: 4, ElephantAge: 0.25,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r.ControlBytes, r.Unfinished
		}},
		{"packet", func(t *testing.T, ctl *Controller) (float64, int) {
			// 100 Mbps testbed links keep the packet count small while
			// the four 8 MB elephants share the host uplink for seconds.
			ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := psim.NewRuntime(psim.Config{
				Topo: ft, Policy: ctl, Arrivals: workload.List(flows(8 * 8 * (1 << 20))), Seed: 4, ElephantAge: 0.25, MaxTime: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			r, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			return r.ControlBytes, r.Unfinished
		}},
	}
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) {
			runMode := func(perFlow bool) float64 {
				bytes, unfinished := eng.run(t, New(Options{
					QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1,
					PerFlowMonitors: perFlow,
				}))
				if unfinished != 0 {
					t.Fatal("unfinished flows")
				}
				return bytes
			}
			shared := runMode(false)
			perFlow := runMode(true)
			if shared <= 0 {
				t.Fatal("no control bytes recorded")
			}
			// Four flows to one ToR pair: per-flow monitors poll ~4x as much.
			if perFlow < shared*2 {
				t.Errorf("per-flow monitors cost %.0fB, shared %.0fB: expected a clear multiple", perFlow, shared)
			}
		})
	}
}
