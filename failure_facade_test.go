package dard

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dard/internal/trace"
)

// TestLinkFailureFacade runs the failure-injection extension through the
// public API: a fabric link dies mid-run; DARD completes every flow while
// ECMP strands the ones hashed onto the dead link.
func TestLinkFailureFacade(t *testing.T) {
	base := Scenario{
		Topology:       TopologySpec{Kind: FatTree, P: 4},
		Pattern:        PatternStride,
		RatePerHost:    0.5,
		Duration:       8,
		FileSizeMB:     64,
		Seed:           9,
		ElephantAgeSec: 0.25,
		MaxTimeSec:     60,
		DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5},
		LinkFailures: []LinkFailure{
			{AtSec: 2, From: "aggr1_1", To: "core1"},
		},
	}
	ecmpScn := base
	ecmpScn.Scheduler = SchedulerECMP
	ecmp, err := ecmpScn.Run()
	if err != nil {
		t.Fatal(err)
	}
	dardScn := base
	dardScn.Scheduler = SchedulerDARD
	dd, err := dardScn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if dd.Unfinished != 0 {
		t.Errorf("DARD stranded %d flows on the dead link", dd.Unfinished)
	}
	if ecmp.Unfinished == 0 {
		t.Error("expected ECMP to strand at least one flow (hash onto the dead link)")
	}
}

// failureScenario is the golden fail-then-repair scenario shared by the
// cross-engine tests: a core uplink dies at t=1.5 with elephants on it
// and comes back at t=3, long after DARD should have routed around it
// but while flows are still arriving (so the repair lands in-trace).
func failureScenario(engine Engine) Scenario {
	return Scenario{
		Topology:       TopologySpec{Kind: FatTree, P: 4, LinkCapacity: 100e6},
		Scheduler:      SchedulerDARD,
		Pattern:        PatternStride,
		Engine:         engine,
		RatePerHost:    0.25,
		Duration:       4,
		FileSizeMB:     16,
		Seed:           9,
		ElephantAgeSec: 0.25,
		MaxTimeSec:     120,
		DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, DeltaBps: 1e6},
		LinkFailures: []LinkFailure{
			{AtSec: 1.5, From: "aggr1_1", To: "core1"},
			{AtSec: 3, From: "aggr1_1", To: "core1", Repair: true},
		},
	}
}

// TestLinkFailureBothEngines is the tentpole's acceptance test: the same
// LinkFailures schedule is accepted by both engines, every DARD flow
// completes across the blackout, and the trace shows the failure being
// detected (PathDead) and routed around (PathSwitch between failure and
// repair).
func TestLinkFailureBothEngines(t *testing.T) {
	for _, engine := range []Engine{EngineFlow, EnginePacket} {
		t.Run(string(engine), func(t *testing.T) {
			rec := trace.NewRecorder(trace.RecorderOptions{})
			scn := failureScenario(engine)
			scn.Tracer = rec
			rep, err := scn.Run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Unfinished != 0 {
				t.Errorf("DARD stranded %d flows across the failure", rep.Unfinished)
			}
			if rep.DARDShifts == 0 {
				t.Error("DARD made no path shifts around the failure")
			}
			if rep.DARDRounds == 0 {
				t.Error("report counts no DARD scheduling rounds")
			}
			tr := rec.Take()
			counts := trace.NewAggregator(tr).EventCounts()
			if counts[trace.KindLinkFail] == 0 || counts[trace.KindLinkRecover] == 0 {
				t.Fatalf("trace missing failure/repair events: %d fails, %d recovers",
					counts[trace.KindLinkFail], counts[trace.KindLinkRecover])
			}
			if counts[trace.KindPathDead] == 0 {
				t.Error("no PathDead event: monitors never detected the dead path")
			}
			// At least one reroute must land inside the blackout window:
			// that is the recovery the paper claims, not post-repair churn.
			failAt, repairAt := math.Inf(1), math.Inf(1)
			for _, e := range tr.Events {
				switch e.Kind {
				case trace.KindLinkFail:
					failAt = math.Min(failAt, e.T)
				case trace.KindLinkRecover:
					repairAt = math.Min(repairAt, e.T)
				}
			}
			if !(failAt < repairAt) {
				t.Fatalf("failure at %g not before repair at %g", failAt, repairAt)
			}
			rerouted := 0
			for _, e := range tr.Events {
				if e.Kind == trace.KindPathSwitch && e.T >= failAt && e.T < repairAt {
					rerouted++
				}
			}
			if rerouted == 0 {
				t.Error("no path switch between failure and repair")
			}
		})
	}
}

// TestLinkFailureRepairRecoversECMP pins the repair half of the fault
// model on the packet engine: ECMP cannot reroute, so flows hashed onto
// the dead link stall through the blackout (RTO backoff), then TCP
// recovers after the repair and every transfer still completes.
func TestLinkFailureRepairRecoversECMP(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderOptions{})
	scn := failureScenario(EnginePacket)
	scn.Scheduler = SchedulerECMP
	scn.Tracer = rec
	rep, err := scn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unfinished != 0 {
		t.Errorf("%d flows never recovered after the repair", rep.Unfinished)
	}
	tr := rec.Take()
	counts := trace.NewAggregator(tr).EventCounts()
	if counts[trace.KindFailDrop] == 0 {
		t.Error("no FailDrop events: the blackout dropped no packets?")
	}
	// Throughput must come back after the repair: some flow that could
	// not finish during the blackout completes after it.
	lateEnds := 0
	for _, e := range tr.Events {
		if e.Kind == trace.KindFlowEnd && e.T > 3 {
			lateEnds++
		}
	}
	if lateEnds == 0 {
		t.Error("no flow completed after the repair: bisection never recovered")
	}
}

// TestLinkFailureDeterminism holds the repo's two standing invariants on
// the failure path: serial and parallel sweeps are bit-identical, and
// tracing does not perturb the run, on both engines.
func TestLinkFailureDeterminism(t *testing.T) {
	scenarios := []Scenario{failureScenario(EngineFlow), failureScenario(EnginePacket)}
	serial, err := RunAll(scenarios, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAll(scenarios, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		a, err := json.Marshal(serial[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(par[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("scenario %d: serial and parallel reports differ", i)
		}
		traced := scenarios[i]
		traced.Tracer = trace.NewRecorder(trace.RecorderOptions{})
		rep, err := traced.Run()
		if err != nil {
			t.Fatal(err)
		}
		c, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, c) {
			t.Errorf("scenario %d: tracing changed the report", i)
		}
	}
}

func TestLinkFailureValidation(t *testing.T) {
	for _, engine := range []Engine{EngineFlow, EnginePacket} {
		base := Scenario{
			Topology:     TopologySpec{Kind: FatTree, P: 4},
			Engine:       engine,
			Duration:     2,
			RatePerHost:  0.5,
			FileSizeMB:   8,
			LinkFailures: []LinkFailure{{AtSec: 1, From: "nosuch", To: "core1"}},
		}
		if _, err := base.Run(); err == nil {
			t.Errorf("%s: unknown failure endpoint should fail", engine)
		}
		base.LinkFailures = []LinkFailure{{AtSec: 1, From: "core1", To: "core2"}}
		if _, err := base.Run(); err == nil {
			t.Errorf("%s: non-adjacent failure endpoints should fail", engine)
		}
		base.LinkFailures = []LinkFailure{{AtSec: math.NaN(), From: "aggr1_1", To: "core1"}}
		if _, err := base.Run(); err == nil {
			t.Errorf("%s: NaN failure time should fail", engine)
		}
		base.LinkFailures = []LinkFailure{{AtSec: -1, From: "aggr1_1", To: "core1"}}
		if _, err := base.Run(); err == nil {
			t.Errorf("%s: negative failure time should fail", engine)
		}
	}
	// Control-fault knobs are validated up front too.
	bad := Scenario{
		Topology: TopologySpec{Kind: FatTree, P: 4},
		DARD:     Tuning{CtlLossProb: 1.5},
	}
	if _, err := bad.Run(); err == nil {
		t.Error("out-of-range control loss probability should fail")
	}
}
