package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dard"
)

// The parallel runner's contract: an experiment's Result is a pure
// function of its Params — never of the worker count, GOMAXPROCS, or
// cell completion order. These tests pin that down for one
// representative experiment per engine: Table 4 (flow-level sweep),
// Figure 13 (packet-level TCP), and NashConvergence (game-level trials).

// withGOMAXPROCS runs fn under the given GOMAXPROCS and restores it.
func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// assertSameResult requires two results to match byte for byte: same
// rendered text and exactly equal Values (float bit-equality via
// reflect.DeepEqual, not tolerance).
func assertSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Text != want.Text {
		t.Errorf("%s: rendered text differs\n--- want ---\n%s\n--- got ---\n%s", label, want.Text, got.Text)
	}
	if !reflect.DeepEqual(want.Values, got.Values) {
		for k, v := range want.Values {
			if gv, ok := got.Values[k]; !ok || gv != v {
				t.Errorf("%s: Values[%q] = %v, want %v", label, k, got.Values[k], v)
			}
		}
		for k := range got.Values {
			if _, ok := want.Values[k]; !ok {
				t.Errorf("%s: unexpected value key %q", label, k)
			}
		}
	}
}

// assertWorkerInvariant runs the experiment serially (workers=1,
// GOMAXPROCS=1) and compares against parallel runs at workers=2 and
// workers=8 under matching GOMAXPROCS.
func assertWorkerInvariant(t *testing.T, run func(workers int) (*Result, error)) {
	t.Helper()
	var serial *Result
	withGOMAXPROCS(1, func() {
		var err error
		serial, err = run(1)
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, workers := range []int{2, 8} {
		workers := workers
		var par *Result
		withGOMAXPROCS(workers, func() {
			var err error
			par, err = run(workers)
			if err != nil {
				t.Fatal(err)
			}
		})
		assertSameResult(t, serial.ID+"/workers="+string(rune('0'+workers)), serial, par)
	}
}

func TestTable4SerialParallelIdentical(t *testing.T) {
	assertWorkerInvariant(t, func(workers int) (*Result, error) {
		p := Quick()
		p.Workers = workers
		return Table4(p)
	})
}

func TestFigure13SerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("packet engine experiment")
	}
	assertWorkerInvariant(t, func(workers int) (*Result, error) {
		p := Quick()
		p.Workers = workers
		return Figure13(p)
	})
}

func TestFailureRecoverySerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("packet engine experiment")
	}
	assertWorkerInvariant(t, func(workers int) (*Result, error) {
		p := Quick()
		p.Workers = workers
		return FailureRecovery(p)
	})
}

func TestNashConvergenceSerialParallelIdentical(t *testing.T) {
	assertWorkerInvariant(t, func(workers int) (*Result, error) {
		return NashConvergence(40, 9, workers)
	})
}

// TestGridCollectsCellErrors: a bad cell must not discard the rest of
// the grid — every other cell still runs and its report is returned,
// and the joined error names every failed cell by its index, so two
// cells that differ only in RatePerHost (as in Figure 4's and Figure
// 15's sweeps) can be told apart.
func TestGridCollectsCellErrors(t *testing.T) {
	topo, err := dard.TopologySpec{Kind: dard.FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Quick()
	base := fatTreeScenario(p)
	base.Duration = 5
	scheds := []dard.Scheduler{dard.SchedulerECMP, dard.Scheduler("bogus"), dard.SchedulerTeXCP}
	cells := grid(base, []*dard.Topology{topo}, patterns, scheds)
	for _, rate := range []float64{0.5, 1} {
		c := cells[1] // the first pattern's bogus-scheduler cell
		c.RatePerHost = rate
		cells = append(cells, c)
	}
	reports, err := dard.RunAll(cells, 2)
	if err == nil {
		t.Fatal("expected cell errors")
	}
	// errors.Join produces one line per failed cell: 3 patterns x 2
	// failing schedulers (bogus is unknown, TeXCP rejects the flow
	// engine), plus the two rate cells.
	if n := strings.Count(err.Error(), "\n") + 1; n != 8 {
		t.Errorf("joined error has %d lines, want 8:\n%v", n, err)
	}
	for i, c := range cells {
		name := fmt.Sprintf("scenario %d %s/%s/%s/%s: ", i, topo.Name(), c.Pattern, c.Scheduler, dard.EngineFlow)
		failing := c.Scheduler != dard.SchedulerECMP
		if got := strings.Contains(err.Error(), name); got != failing {
			t.Errorf("joined error names cell %q: %v, want %v", name, got, failing)
		}
		if got := reports[i] == nil; got != failing {
			t.Errorf("cell %s has nil report: %v, want %v", name, got, failing)
		}
	}
	// The unwrapped errors are reachable for callers that inspect them.
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Error("error should be an errors.Join result")
	} else if len(joined.Unwrap()) != 8 {
		t.Errorf("joined error wraps %d errors, want 8", len(joined.Unwrap()))
	}
}

// TestGridSerialParallelIdentical: grid's derived per-cell seeds make
// the report grid independent of the worker count, and pair the
// schedulers of one pattern on one workload.
func TestGridSerialParallelIdentical(t *testing.T) {
	topo, err := dard.TopologySpec{Kind: dard.FatTree, P: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	base := dard.Scenario{
		RatePerHost:    1.5,
		Duration:       8,
		FileSizeMB:     32,
		Seed:           11,
		ElephantAgeSec: 0.25,
		DARD:           dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1},
	}
	scheds := []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerDARD}
	cells := grid(base, []*dard.Topology{topo}, patterns, scheds)
	if len(cells) != len(patterns)*len(scheds) {
		t.Fatalf("grid has %d cells, want %d", len(cells), len(patterns)*len(scheds))
	}
	for i, c := range cells {
		if want := dard.CellSeed(base.Seed, topo, c.Pattern); c.Seed != want {
			t.Errorf("cell %d seed %d, want CellSeed %d", i, c.Seed, want)
		}
	}
	serial, err := dard.RunAll(cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := dard.RunAll(cells, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("workers=%d: cell %s/%s differs from the serial run", workers, cells[i].Pattern, cells[i].Scheduler)
			}
		}
	}
}
