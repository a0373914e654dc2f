package dard

import (
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/fpcmp"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// TestDARDRoutesAroundFailure is the adaptivity extension: when a fabric
// link dies mid-transfer, its BoNF collapses to zero, the monitor's next
// round shifts the stranded elephant to a live path, and the flow
// completes — while a static assignment strands forever (see
// flowsim.TestLinkFailureStrandsStaticFlow).
func TestDARDRoutesAroundFailure(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 4e9, Arrival: 0}}
	path := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8])).AppendLinks(0, nil)
	ctl := New(Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5})
	s, err := flowsim.New(flowsim.Config{
		Net:         ft,
		Controller:  path0Controller{ctl},
		Arrivals:    workload.List(flows),
		Seed:        1,
		ElephantAge: 0.25,
		LinkEvents:  []topology.LinkEvent{{At: 1, Link: path[1], Down: true}},
		MaxTime:     30,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatal("DARD should have rerouted the stranded elephant")
	}
	f := r.Flows[0]
	if f.PathSwitches == 0 {
		t.Error("no path switch recorded despite the failure")
	}
	// 1s before the failure + <=1.5s detection/shift + 3s remaining.
	if f.TransferTime > 6.5 {
		t.Errorf("transfer time = %.2fs, rerouting took too long", f.TransferTime)
	}
	if f.FinalPathIdx == 0 {
		t.Error("flow still ends on the failed path")
	}
}

// lossyRun reruns the routes-around-failure scenario with the given
// control-plane fault model and returns the results.
func lossyRun(t *testing.T, f ctlmsg.Faults) *flowsim.Results {
	t.Helper()
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 4e9, Arrival: 0}}
	path := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8])).AppendLinks(0, nil)
	ctl := New(Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, Faults: f})
	s, err := flowsim.New(flowsim.Config{
		Net:         ft,
		Controller:  path0Controller{ctl},
		Arrivals:    workload.List(flows),
		Seed:        1,
		ElephantAge: 0.25,
		LinkEvents:  []topology.LinkEvent{{At: 1, Link: path[1], Down: true}},
		MaxTime:     60,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDARDSurvivesLossyControlPlane reruns the failure scenario with a
// badly degraded control plane: 30% message loss, duplicates, and a
// per-exchange delay. Retries and cached state must still get the
// stranded elephant off the dead path, at a visibly higher control cost.
func TestDARDSurvivesLossyControlPlane(t *testing.T) {
	reliable := lossyRun(t, ctlmsg.Faults{})
	lossy := lossyRun(t, ctlmsg.Faults{LossProb: 0.3, DupProb: 0.1, DelayS: 0.002, Seed: 7})
	if lossy.Unfinished != 0 {
		t.Fatal("stranded flow never rerouted under the lossy control plane")
	}
	if lossy.Flows[0].PathSwitches == 0 {
		t.Error("no path switch under the lossy control plane")
	}
	// Loss slows detection but not unboundedly: the retry budget keeps
	// rounds short, so rerouting lands within a few query intervals of
	// the reliable run.
	if lossy.Flows[0].TransferTime > reliable.Flows[0].TransferTime+5 {
		t.Errorf("lossy reroute took %.2f s vs %.2f s reliable",
			lossy.Flows[0].TransferTime, reliable.Flows[0].TransferTime)
	}
	// Retries and duplicates must show up in the overhead ledger.
	if lossy.ControlBytes <= reliable.ControlBytes {
		t.Errorf("lossy control bytes %g not above reliable %g",
			lossy.ControlBytes, reliable.ControlBytes)
	}
}

// TestFoldPVFailedLink pins the fold semantics the failure model relies
// on: a zero-capacity link collapses its path's BoNF to zero no matter
// what the other links report, and a link nobody reported is an error.
func TestFoldPVFailedLink(t *testing.T) {
	ft := fatTree(t)
	ps := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8]))
	// Every path link reports 1 Gbps shared by four elephants, except
	// path 0's aggregation-to-core hop, which no other path uses: it has
	// failed and reports zero bandwidth — or, with reportFailed false,
	// reports nothing at all.
	failed := ps.AppendLinks(0, nil)[1]
	state := NewLinkState(ft.Graph().NumLinks())
	fill := func(reportFailed bool) {
		t.Helper()
		state.Reset()
		var links []topology.LinkID
		for i := 0; i < ps.Len(); i++ {
			links = ps.AppendLinks(i, links[:0])
			for _, l := range links {
				p := ctlmsg.PortState{LinkID: uint32(l), BandwidthMbps: 1000, ElephantFlows: 4}
				if l == failed {
					if !reportFailed {
						continue
					}
					p = ctlmsg.PortState{LinkID: uint32(l)}
				}
				if err := state.Set(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	fill(true)
	pv, _, err := FoldPVInto(nil, nil, ps, state)
	if err != nil {
		t.Fatal(err)
	}
	if !fpcmp.IsZero(pv[0].BoNF) {
		t.Errorf("path over failed link has BoNF %g, want 0", pv[0].BoNF)
	}
	for i := 1; i < len(pv); i++ {
		if want := 250e6; !fpcmp.Eq(pv[i].BoNF, want) {
			t.Errorf("live path %d BoNF %g, want %g", i, pv[i].BoNF, want)
		}
	}
	if !fpcmp.IsZero(MinBoNF(pv)) {
		t.Errorf("MinBoNF %g, want 0 with a dead path", MinBoNF(pv))
	}
	fill(false)
	if _, _, err := FoldPVInto(pv, nil, ps, state); err == nil {
		t.Error("unreported link folded without error")
	}
}

// TestMarkDeadPathsTransitions checks the dead mask and its trace
// events: PathDead fires exactly on the live->dead transition, not on
// every round the path stays dead.
func TestMarkDeadPathsTransitions(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	alive := []PathState{{Bandwidth: 1e9, Flows: 1, BoNF: 1e9}, {Bandwidth: 1e9, Flows: 1, BoNF: 1e9}}
	deadPV := []PathState{{Bandwidth: 1e9, Flows: 1, BoNF: 1e9}, {BoNF: 0}}
	mask := MarkDeadPaths(rec, 0.5, 42, alive, nil)
	if mask[0] || mask[1] {
		t.Fatal("live paths marked dead")
	}
	mask = MarkDeadPaths(rec, 1.0, 42, deadPV, mask)
	if !mask[1] || mask[0] {
		t.Fatalf("dead mask = %v, want only path 1 dead", mask)
	}
	mask = MarkDeadPaths(rec, 1.5, 42, deadPV, mask) // still dead: no new event
	mask = MarkDeadPaths(rec, 2.0, 42, alive, mask)  // repaired
	if mask[1] {
		t.Error("path stayed dead after recovery")
	}
	mask = MarkDeadPaths(rec, 2.5, 42, deadPV, mask) // dies again: second event
	if !mask[1] {
		t.Error("second failure not marked")
	}
	tr := rec.Take()
	var events []trace.Event
	for _, e := range tr.Events {
		if e.Kind == trace.KindPathDead {
			events = append(events, e)
		}
	}
	if len(events) != 2 {
		t.Fatalf("%d PathDead events, want 2 (one per transition)", len(events))
	}
	for _, e := range events {
		if e.A != 1 || e.B != 42 {
			t.Errorf("PathDead event A=%d B=%d, want path 1, entity 42", e.A, e.B)
		}
	}
}
