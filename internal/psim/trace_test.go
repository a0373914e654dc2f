package psim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dard/internal/dard"
	"dard/internal/sched"
	"dard/internal/trace"
	"dard/internal/workload"
)

func traceFlows() []workload.Flow {
	return []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(4), Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: mb(4), Arrival: 0},
		{ID: 2, Src: 4, Dst: 12, SizeBits: mb(2), Arrival: 0.3},
	}
}

func dardPolicy() sched.Policy {
	return dard.New(dard.Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5})
}

// TestTracedRunMatchesUntraced: a run with a recorder and probes
// reports exactly what the untraced run reports, and the recorder holds
// every flow's lifecycle plus the three probed packet series. The probe
// armed past the last completion is canceled, so SimTime and the core
// utilization do not move.
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain := runPolicy(t, dardPolicy(), traceFlows(), 3)

	rec := trace.NewRecorder(trace.RecorderOptions{})
	rt, err := NewRuntime(Config{
		Topo: fatTree(t), Policy: dardPolicy(), Arrivals: workload.List(traceFlows()),
		Seed: 3, ElephantAge: 0.5, MaxTime: 300, Tracer: rec, ProbeInterval: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("tracing changed the results:\nuntraced %+v\ntraced   %+v", plain, traced)
	}

	tr := rec.Take()
	kinds := map[trace.Kind]int{}
	for _, e := range tr.Events {
		kinds[e.Kind]++
	}
	if kinds[trace.KindFlowStart] != 3 || kinds[trace.KindFlowEnd] != 3 {
		t.Errorf("flow lifecycle events %v, want 3 starts and 3 ends", kinds)
	}
	metrics := map[trace.Metric]int{}
	for _, s := range tr.Series {
		metrics[s.Metric]++
		for _, p := range s.Points {
			if p.T > traced.SimTime {
				t.Fatalf("%s/%d sampled at %g, after the run ended at %g", s.Metric, s.Entity, p.T, traced.SimTime)
			}
		}
	}
	links := rt.Topo().Graph().NumLinks()
	if metrics[trace.MetricLinkUtil] != links || metrics[trace.MetricQueueBits] != links {
		t.Errorf("link series %v, want %d link_util and queue_bits series", metrics, links)
	}
	if metrics[trace.MetricFlowCwnd] != 3 {
		t.Errorf("%d cwnd series, want one per flow", metrics[trace.MetricFlowCwnd])
	}
}

// TestResultSamples: the per-flow samples cover the completed flows.
func TestResultSamples(t *testing.T) {
	r := runPolicy(t, sched.ECMP{}, traceFlows(), 1)
	for name, s := range map[string]interface{ N() int }{
		"transfer times":    r.TransferTimes(),
		"retransmit rates":  r.RetxRates(),
		"path switch count": r.PathSwitchCounts(),
	} {
		if s.N() != len(r.Flows) {
			t.Errorf("%s: %d values for %d completed flows", name, s.N(), len(r.Flows))
		}
	}
}

// outOfRange picks a path index no path set has; the runtime falls back
// to path 0.
type outOfRange struct{ sched.ECMP }

func (outOfRange) InitialPath(sched.Host, sched.Flow) int { return 1 << 20 }

// TestFlowAccessors: before a flow arrives the runtime knows nothing of
// it; once it runs, its identity, path and progress are readable, and
// an out-of-range initial path falls back to path 0.
func TestFlowAccessors(t *testing.T) {
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: mb(8), Arrival: 0.2}}
	rt, err := NewRuntime(Config{Topo: fatTree(t), Policy: outOfRange{}, Arrivals: workload.List(flows), Seed: 2, MaxTime: 300})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Net() == nil {
		t.Fatal("no packet network")
	}
	var checked bool
	rt.After(0.1, func() {
		if _, ok := rt.FlowByID(0); ok {
			t.Error("FlowByID knows a flow before its arrival")
		}
		if _, ok := rt.FlowAcked(0); ok {
			t.Error("FlowAcked reports progress before arrival")
		}
		if rt.FlowActive(0) {
			t.Error("flow active before arrival")
		}
	})
	rt.After(0.5, func() {
		f, ok := rt.FlowByID(0)
		if !ok || f.ID != 0 || f.Src != rt.Topo().Hosts()[0] {
			t.Errorf("FlowByID(0) = %+v, %v", f, ok)
		}
		if _, ok := rt.FlowAcked(0); !ok {
			t.Error("FlowAcked has no progress for a running flow")
		}
		if p := rt.FlowPath(0); p != 0 {
			t.Errorf("out-of-range initial path resolved to %d, want 0", p)
		}
		if _, ok := rt.FlowByID(-1); ok {
			t.Error("FlowByID accepted a negative ID")
		}
		checked = true
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the running-flow checks never ran")
	}
}

// TestUnfinishedFlows: a run cut off at MaxTime reports the flows still
// transferring and the ones that never arrived as unfinished.
func TestUnfinishedFlows(t *testing.T) {
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 8, SizeBits: mb(64), Arrival: 0},
		{ID: 1, Src: 1, Dst: 9, SizeBits: mb(1), Arrival: 5},
	}
	rt, err := NewRuntime(Config{Topo: fatTree(t), Policy: sched.ECMP{}, Arrivals: workload.List(flows), Seed: 1, MaxTime: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Unfinished != 2 || len(r.Flows) != 1 || r.Flows[0].Completed() {
		t.Fatalf("unfinished %d, flows %+v; want both unfinished and one started", r.Unfinished, r.Flows)
	}
	if r.TransferTimes().N() != 0 {
		t.Error("an unfinished flow entered the transfer-time sample")
	}
}

// TestRunContextCanceled: a canceled context stops the run at its next
// horizon with the context's error.
func TestRunContextCanceled(t *testing.T) {
	rt, err := NewRuntime(Config{Topo: fatTree(t), Policy: sched.ECMP{}, Arrivals: workload.List(traceFlows()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
}
