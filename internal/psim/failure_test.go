package psim

import (
	"math"
	"testing"

	"dard/internal/dard"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// failedLink returns the aggr->core hop of path 0 between the source and
// destination ToRs of hosts 0 and 4 — the link the pinned tests strand
// their flows on.
func failedLink(ft *topology.FatTree) topology.LinkID {
	hs := ft.Hosts()
	return ft.PathSet(ft.ToROf(hs[0]), ft.ToROf(hs[4])).AppendLinks(0, nil)[1]
}

// TestDARDPacketLevelRoutesAroundFailure is the packet-engine half of
// the fault-injection tentpole: a core uplink dies under four pinned
// elephants and repairs later; the monitors detect the dead path (link
// capacity zero, then goodput stall) and evacuate every flow, so all
// transfers complete without waiting for the repair.
func TestDARDPacketLevelRoutesAroundFailure(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 4, SizeBits: mb(20), Arrival: 0},
		{ID: 1, Src: 2, Dst: 6, SizeBits: mb(20), Arrival: 0},
		{ID: 2, Src: 8, Dst: 5, SizeBits: mb(20), Arrival: 0},
		{ID: 3, Src: 10, Dst: 7, SizeBits: mb(20), Arrival: 0},
	}
	link := failedLink(ft)
	d := dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, Delta: 1e6})
	rt, err := NewRuntime(Config{
		Topo: ft, Policy: pinnedDARD{d}, Arrivals: workload.List(flows), Seed: 3, ElephantAge: 0.25, MaxTime: 300,
		LinkEvents: []topology.LinkEvent{
			{At: 1, Link: link, Down: true},
			{At: 60, Link: link, Down: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatalf("%d flows stranded on the failed link", r.Unfinished)
	}
	if d.Shifts == 0 {
		t.Fatal("DARD made no shifts around the failure")
	}
	if rt.net.FailDrops(link) == 0 {
		t.Error("no packets counted against the failed link")
	}
	// Evacuation beats the repair: every transfer finishes well before
	// the link comes back at t=60.
	for _, f := range r.Flows {
		if f.TransferTime > 30 {
			t.Errorf("flow %d took %.1f s: it waited for the repair instead of rerouting", f.ID, f.TransferTime)
		}
		if f.PathSwitches == 0 {
			t.Errorf("flow %d never left the failed path", f.ID)
		}
	}
}

// TestECMPPacketLevelRecoversAfterRepair pins the repair semantics
// without rerouting: ECMP cannot move a flow, so one hashed onto the
// dead link stalls on RTO backoff until the repair, then completes.
func TestECMPPacketLevelRecoversAfterRepair(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 4, SizeBits: mb(4), Arrival: 0}}
	link := failedLink(ft)
	rt, err := NewRuntime(Config{
		Topo: ft, Policy: pinnedDARD{dard.New(dard.Options{ScheduleInterval: 1e6})}, Arrivals: workload.List(flows),
		Seed: 3, ElephantAge: 1e6, MaxTime: 300,
		LinkEvents: []topology.LinkEvent{
			{At: 0.1, Link: link, Down: true},
			{At: 5, Link: link, Down: false},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 0 {
		t.Fatal("flow never recovered after the repair")
	}
	if tt := r.Flows[0].TransferTime; tt < 5 {
		t.Errorf("transfer finished at %.2f s, before the repair at 5 s", tt)
	}
}

func TestLinkEventValidation(t *testing.T) {
	ft := fatTree(t)
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: mb(1), Arrival: 0}}
	base := Config{Topo: ft, Policy: sched.ECMP{}, Arrivals: workload.List(flows), MaxTime: 10}
	cases := []struct {
		name string
		ev   topology.LinkEvent
	}{
		{"link out of range", topology.LinkEvent{At: 1, Link: topology.LinkID(1 << 20), Down: true}},
		{"negative link", topology.LinkEvent{At: 1, Link: -1, Down: true}},
		{"negative time", topology.LinkEvent{At: -1, Link: failedLink(ft), Down: true}},
		{"NaN time", topology.LinkEvent{At: math.NaN(), Link: failedLink(ft), Down: true}},
		{"infinite time", topology.LinkEvent{At: math.Inf(1), Link: failedLink(ft), Down: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.LinkEvents = []topology.LinkEvent{tc.ev}
			if _, err := NewRuntime(cfg); err == nil {
				t.Error("invalid link event accepted")
			}
		})
	}
}
