package dard

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dard/internal/trace"
)

// flowTraceScenario is a flow-engine run busy enough to exercise
// elephants, control traffic, and path switches.
func flowTraceScenario() Scenario {
	return Scenario{
		Topology:       TopologySpec{Kind: FatTree, P: 4},
		Scheduler:      SchedulerDARD,
		Pattern:        PatternStride,
		RatePerHost:    1.5,
		Duration:       8,
		FileSizeMB:     32,
		Seed:           17,
		ElephantAgeSec: 0.25,
		DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
	}
}

// packetTraceScenario is a short packet-engine run with TCP dynamics.
func packetTraceScenario() Scenario {
	return Scenario{
		Topology:       TopologySpec{Kind: FatTree, P: 4, LinkCapacity: 100e6},
		Scheduler:      SchedulerDARD,
		Pattern:        PatternStride,
		Engine:         EnginePacket,
		RatePerHost:    0.4,
		Duration:       2,
		FileSizeMB:     1,
		Seed:           17,
		ElephantAgeSec: 0.25,
		DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5},
	}
}

// TestTracingDoesNotPerturbRun is the tentpole's central invariant: an
// enabled tracer must not change a single reported value on either
// engine — probes and events observe the simulation without touching its
// event order or floating-point arithmetic.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
	}{
		{"flow", flowTraceScenario()},
		{"packet", packetTraceScenario()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.scn.Run()
			if err != nil {
				t.Fatal(err)
			}
			traced := tc.scn
			traced.Tracer = trace.NewRecorder(trace.RecorderOptions{})
			got, err := traced.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, got) {
				t.Errorf("tracing changed the report:\nuntraced: %+v\ntraced:   %+v", plain, got)
			}
		})
	}
}

// TestTraceReproducesReport asserts the acceptance criterion: the
// aggregator reconstructs the run's transfer times from the trace
// bit-for-bit, on both engines.
func TestTraceReproducesReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		scn  Scenario
	}{
		{"flow", flowTraceScenario()},
		{"packet", packetTraceScenario()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder(trace.RecorderOptions{})
			scn := tc.scn
			scn.Tracer = rec
			rep, err := scn.Run()
			if err != nil {
				t.Fatal(err)
			}
			tr := rec.Take()
			if tr.Meta.Topology == "" || tr.Meta.Scheduler != string(SchedulerDARD) {
				t.Errorf("meta not filled: %+v", tr.Meta)
			}
			got := trace.NewAggregator(tr).TransferTimes()
			if len(got) == 0 {
				t.Fatal("no completions in trace")
			}
			if !reflect.DeepEqual(got, rep.TransferTimes) {
				t.Errorf("trace transfer times != report transfer times\ntrace:  %v\nreport: %v",
					got, rep.TransferTimes)
			}
			counts := trace.NewAggregator(tr).EventCounts()
			if counts[trace.KindFlowStart] != rep.Flows {
				t.Errorf("FlowStart count %d != %d generated flows", counts[trace.KindFlowStart], rep.Flows)
			}
			if cb := trace.NewAggregator(tr).ControlBytes(); cb != rep.ControlBytes {
				t.Errorf("trace control bytes %g != report %g", cb, rep.ControlBytes)
			}
		})
	}
}

// TestTraceDirWritesReadableFile: the TraceDir path records and exports
// without a caller-managed recorder, and the file parses back.
func TestTraceDirWritesReadableFile(t *testing.T) {
	dir := t.TempDir()
	scn := flowTraceScenario()
	scn.TraceDir = dir
	rep, err := scn.Run()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, scn.TraceFileName())
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	defer f.Close()
	tr, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	got := trace.NewAggregator(tr).TransferTimes()
	if !reflect.DeepEqual(got, rep.TransferTimes) {
		t.Error("trace file does not reproduce the report's transfer times")
	}
}

// TestMatrixTraceFilesSerialParallelIdentical: a traced pattern x
// scheduler grid run through RunAll writes one file per cell with
// distinct names, and the files are byte-identical whether the grid ran
// serially or on 8 workers.
func TestMatrixTraceFilesSerialParallelIdentical(t *testing.T) {
	topo, err := TopologySpec{Kind: FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := Scenario{
		RatePerHost:    1.5,
		Duration:       6,
		FileSizeMB:     32,
		Seed:           11,
		ElephantAgeSec: 0.25,
		DARD:           Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
	}
	pats := []Pattern{PatternRandom, PatternStride}
	scheds := []Scheduler{SchedulerECMP, SchedulerDARD}

	runTraced := func(workers int) (string, error) {
		dir := t.TempDir()
		var grid []Scenario
		for _, pat := range pats {
			for _, sch := range scheds {
				s := base
				s.Topo, s.Pattern, s.Scheduler = topo, pat, sch
				s.Seed = CellSeed(base.Seed, topo, pat)
				s.TraceDir = dir
				grid = append(grid, s)
			}
		}
		_, err := RunAll(grid, workers)
		return dir, err
	}
	serialDir, err := runTraced(1)
	if err != nil {
		t.Fatal(err)
	}
	parallelDir, err := runTraced(8)
	if err != nil {
		t.Fatal(err)
	}

	serialFiles, err := filepath.Glob(filepath.Join(serialDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(serialFiles) != len(pats)*len(scheds) {
		t.Fatalf("serial sweep wrote %d trace files, want %d", len(serialFiles), len(pats)*len(scheds))
	}
	for _, sf := range serialFiles {
		name := filepath.Base(sf)
		a, err := os.ReadFile(sf)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parallelDir, name))
		if err != nil {
			t.Fatalf("parallel sweep missing %s: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between serial and parallel sweeps", name)
		}
	}
}

// TestTraceFileNameSpecMatchesBuilt: a scenario that names its topology
// by spec writes the trace file a scenario carrying the built Topo
// writes, for every family, with default and explicit dimensions, so two
// sizes of one family in one TraceDir never share a file.
func TestTraceFileNameSpecMatchesBuilt(t *testing.T) {
	specs := []TopologySpec{
		{}, {Kind: FatTree, P: 6, HostsPerToR: 1},
		{Kind: Clos}, {Kind: Clos, D: 4},
		{Kind: ThreeTier}, {Kind: ThreeTier, HostsPerToR: 2},
		{Kind: Dragonfly}, {Kind: Dragonfly, D: 2, A: 2, HostsPerToR: 1},
		{Kind: DCell}, {Kind: DCell, N: 2, Level: 2},
	}
	for _, spec := range specs {
		topo, err := spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		byName := Scenario{Topology: spec}.TraceFileName()
		if built := (Scenario{Topo: topo}).TraceFileName(); byName != built {
			t.Errorf("%+v: spec names trace file %q, built topology %q", spec, byName, built)
		}
	}
}
