// External test package so it can drive flowsim with the real DARD
// controller (internal/dard imports flowsim).
package flowsim_test

import (
	"reflect"
	"sync"
	"testing"

	idard "dard/internal/dard"
	"dard/internal/flowsim"
	"dard/internal/hedera"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// Many Sims sharing one Network and one workload slice is exactly what
// the parallel experiment runner does; with -race this verifies the
// engine keeps all mutable state (link loads, flow state, timers)
// per-Sim, and that sharing does not perturb results.
func TestSimsShareNetworkConcurrently(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.Generate(workload.NewLayout(ft), workload.Config{
		Pattern:     workload.Stride{N: len(ft.Hosts()), Step: 4},
		RatePerHost: 1.5,
		Duration:    6,
		SizeBytes:   16 << 20,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	controllers := func() []sched.Policy {
		return []sched.Policy{
			sched.ECMP{},
			&sched.PVLB{Interval: 2},
			idard.New(idard.Options{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1}),
			idard.New(idard.Options{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1}),
		}
	}

	runOne := func(ctl sched.Policy) (*flowsim.Results, error) {
		sim, err := flowsim.New(flowsim.Config{
			Net:         ft,
			Controller:  ctl,
			Flows:       flows,
			Seed:        5,
			ElephantAge: 0.25,
		})
		if err != nil {
			return nil, err
		}
		return sim.Run()
	}

	// Serial baseline.
	var serial []*flowsim.Results
	for _, ctl := range controllers() {
		res, err := runOne(ctl)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, res)
	}

	// Concurrent runs on the same Network and flows, fresh controllers.
	ctls := controllers()
	parallelRes := make([]*flowsim.Results, len(ctls))
	var wg sync.WaitGroup
	for i, ctl := range ctls {
		i, ctl := i, ctl
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runOne(ctl)
			if err != nil {
				t.Error(err)
				return
			}
			parallelRes[i] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range serial {
		a, b := serial[i], parallelRes[i]
		if a.TransferTimes().Mean() != b.TransferTimes().Mean() {
			t.Errorf("controller %d: mean transfer time %g (serial) vs %g (shared)",
				i, a.TransferTimes().Mean(), b.TransferTimes().Mean())
		}
		if !reflect.DeepEqual(a.TransferTimes().Values(), b.TransferTimes().Values()) {
			t.Errorf("controller %d: transfer time distribution diverged under sharing", i)
		}
	}
}

// TestTracedSimsConcurrently runs several sims, each with an enabled
// tracer, on overlapping goroutines over one shared topology. Hedera's
// central rounds batch-SetPath many elephants per timer, so recomputes
// partition into multiple components. Sims share no mutable state, so
// -race must stay silent (trace.Recorder appends unsynchronized) and
// every run must reproduce the serial traced baseline exactly.
func TestTracedSimsConcurrently(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	flows, err := workload.Generate(workload.NewLayout(ft), workload.Config{
		Pattern:     workload.Stride{N: len(ft.Hosts()), Step: 4},
		RatePerHost: 2,
		Duration:    6,
		SizeBytes:   24 << 20,
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}

	runOne := func() (*flowsim.Results, *trace.Recorder) {
		rec := trace.NewRecorder(trace.RecorderOptions{})
		sim, err := flowsim.New(flowsim.Config{
			Net:           ft,
			Controller:    hedera.New(hedera.Options{Interval: 0.5}),
			Flows:         flows,
			Seed:          9,
			ElephantAge:   0.25,
			Tracer:        rec,
			ProbeInterval: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}

	serialRes, serialRec := runOne()

	const sims = 4
	results := make([]*flowsim.Results, sims)
	recs := make([]*trace.Recorder, sims)
	var wg sync.WaitGroup
	for i := 0; i < sims; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], recs[i] = runOne()
		}()
	}
	wg.Wait()
	for i := 0; i < sims; i++ {
		if !reflect.DeepEqual(results[i].TransferTimes().Values(), serialRes.TransferTimes().Values()) {
			t.Errorf("sim %d: transfer times diverged from the serial traced baseline", i)
		}
		if !reflect.DeepEqual(recs[i].Events(), serialRec.Events()) {
			t.Errorf("sim %d: trace event stream diverged from the serial traced baseline", i)
		}
	}
}
