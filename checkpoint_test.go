package dard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dard"
)

// runResumed executes the scenario through a Session, pausing every
// `every` events, snapshotting at each pause, and continuing in a fresh
// session rebuilt from the bytes alone — so every hop crosses the full
// serialize/deserialize boundary, not just an in-process continue.
func runResumed(t *testing.T, s dard.Scenario, every int64) *dard.Report {
	t.Helper()
	sess, err := dard.NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	for hops := 0; ; hops++ {
		if hops > 1<<20 {
			t.Fatal("resume loop did not terminate")
		}
		sess.PauseAfter(every)
		rep, err := sess.Run(context.Background())
		if err == nil {
			return rep
		}
		if !errors.Is(err, dard.ErrPaused) {
			t.Fatal(err)
		}
		blob, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sess, err = dard.ResumeSession(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
}

func reportJSON(t *testing.T, rep *dard.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// steadyCase is a steady-state scenario whose bounded arrival window
// drains, so an uninterrupted Run completes and can anchor the diff.
func steadyCase(sch dard.Scheduler) dard.Scenario {
	s := dard.Scenario{
		Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:      sch,
		Pattern:        dard.PatternStride,
		RatePerHost:    0.5,
		Duration:       6,
		FileSizeMB:     64,
		Seed:           11,
		ElephantAgeSec: 0.2,
		Steady:         true,
		WindowSec:      0.5,
	}
	if sch == dard.SchedulerDARD {
		s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}
	}
	return s
}

// TestCheckpointResumeEquivalence is the acceptance gate for the
// checkpoint subsystem: every equivalence scenario — all four flow
// schedulers, active DARD control loops, mid-run link failures — plus
// steady-state streaming runs must produce byte-identical reports when
// repeatedly paused at arbitrary event boundaries, serialized, and
// resumed from the bytes. The pause cadence is a small prime — the
// scenarios run a few hundred to a thousand events, so every one
// round-trips several times and checkpoints land on completions,
// arrivals, and timer dispatches alike.
func TestCheckpointResumeEquivalence(t *testing.T) {
	cases := equivalenceCases(true)
	cases["ECMP/steady"] = steadyCase(dard.SchedulerECMP)
	cases["DARD/steady"] = steadyCase(dard.SchedulerDARD)
	for name, scenario := range cases {
		scenario := scenario
		t.Run(name, func(t *testing.T) {
			uninterrupted, err := scenario.Run()
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, uninterrupted)
			got := reportJSON(t, runResumed(t, scenario, 61))
			if !bytes.Equal(got, want) {
				t.Errorf("resumed run diverges from uninterrupted:\n  resumed:       %s\n  uninterrupted: %s",
					firstDiff(got, want), firstDiff(want, got))
			}
		})
	}
}

// TestCheckpointEveryEvent forces a serialize/restore cycle at every
// single event boundary of a small DARD run — the densest possible
// checkpoint schedule — and still requires the byte-identical report.
func TestCheckpointEveryEvent(t *testing.T) {
	scenario := dard.Scenario{
		Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:      dard.SchedulerDARD,
		Pattern:        dard.PatternStride,
		RatePerHost:    0.5,
		Duration:       2,
		FileSizeMB:     64,
		Seed:           7,
		ElephantAgeSec: 0.2,
		DARD:           dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5},
	}
	uninterrupted, err := scenario.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, uninterrupted)
	got := reportJSON(t, runResumed(t, scenario, 1))
	if !bytes.Equal(got, want) {
		t.Errorf("per-event resumed run diverges:\n  resumed:       %s\n  uninterrupted: %s",
			firstDiff(got, want), firstDiff(want, got))
	}
}

// TestSteadyWindowsDeterministic pins the steady-state windowed metrics:
// a fixed seed yields the same windows byte for byte on every run, and
// the windows actually materialize.
func TestSteadyWindowsDeterministic(t *testing.T) {
	scenario := steadyCase(dard.SchedulerECMP)
	a, err := scenario.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) == 0 {
		t.Fatal("steady run produced no windows")
	}
	aj, bj := reportJSON(t, a), reportJSON(t, b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("steady runs diverge on one seed:\n  first:  %s\n  second: %s", firstDiff(aj, bj), firstDiff(bj, aj))
	}
	last := a.Windows[len(a.Windows)-1]
	if last.Flows == 0 && last.Bits != 0 {
		t.Errorf("inconsistent final window: %+v", last)
	}
}

// TestBatchReportUnchangedByWindows guards the report wire format: a
// scenario without a window width serializes with no Windows key at all,
// so pre-existing consumers see byte-identical reports.
func TestBatchReportUnchangedByWindows(t *testing.T) {
	s := dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:   dard.SchedulerECMP,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    3,
		FileSizeMB:  32,
		Seed:        5,
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != nil {
		t.Fatalf("batch run without WindowSec grew %d windows", len(rep.Windows))
	}
	if bytes.Contains(reportJSON(t, rep), []byte(`"Windows"`)) {
		t.Fatal("windowless report serializes a Windows key")
	}
}

// TestRunContextCanceled pins the cancellation contract on both engines:
// the error matches ErrCanceled and the context's own error, and names
// ErrCanceled once.
func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:   dard.SchedulerECMP,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    3,
		FileSizeMB:  32,
		Seed:        5,
	}
	for _, engine := range []dard.Engine{dard.EngineFlow, dard.EnginePacket} {
		s := base
		s.Engine = engine
		_, err := s.RunContext(ctx)
		if err == nil {
			t.Fatalf("%s: canceled run reported success", engine)
		}
		if !errors.Is(err, dard.ErrCanceled) {
			t.Errorf("%s: error %v does not match ErrCanceled", engine, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error %v does not match context.Canceled", engine, err)
		}
		if n := strings.Count(err.Error(), dard.ErrCanceled.Error()); n != 1 {
			t.Errorf("%s: error %q names ErrCanceled %d times, want once", engine, err, n)
		}
	}
}

// TestSessionCancelThenResume checks that cancellation is non-destructive
// for sessions: a canceled session still snapshots, and the resumed run
// finishes with the uninterrupted report.
func TestSessionCancelThenResume(t *testing.T) {
	scenario := dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:   dard.SchedulerPVLB,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    3,
		FileSizeMB:  64,
		Seed:        9,
	}
	uninterrupted, err := scenario.Run()
	if err != nil {
		t.Fatal(err)
	}

	sess, err := dard.NewSession(scenario)
	if err != nil {
		t.Fatal(err)
	}
	// Advance part way, then hit it with an already-canceled context.
	sess.PauseAfter(50)
	if _, err := sess.Run(context.Background()); !errors.Is(err, dard.ErrPaused) {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(ctx); !errors.Is(err, dard.ErrCanceled) {
		t.Fatalf("canceled session run: %v", err)
	}
	blob, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := dard.ResumeSession(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, got := reportJSON(t, uninterrupted), reportJSON(t, rep)
	if !bytes.Equal(got, want) {
		t.Errorf("cancel-resume diverges:\n  resumed:       %s\n  uninterrupted: %s", firstDiff(got, want), firstDiff(want, got))
	}
}

// TestSessionSnapshotRejectsCorruption flips bytes inside the engine
// blob and requires ResumeSession to fail cleanly (the engine snapshot
// is CRC-guarded), never to panic or silently accept.
func TestSessionSnapshotRejectsCorruption(t *testing.T) {
	sess, err := dard.NewSession(dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:   dard.SchedulerECMP,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    2,
		FileSizeMB:  32,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.PauseAfter(20)
	if _, err := sess.Run(context.Background()); !errors.Is(err, dard.ErrPaused) {
		t.Fatal(err)
	}
	blob, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := dard.ResumeSession([]byte("not json"), nil); err == nil {
		t.Error("garbage blob accepted")
	}

	var wire struct {
		Version   int             `json:"version"`
		Scenario  json.RawMessage `json:"scenario"`
		Reference bool            `json:"reference,omitempty"`
		Engine    []byte          `json:"engine"`
	}
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(wire.Engine) / 2, len(wire.Engine) - 1} {
		corrupt := wire
		corrupt.Engine = bytes.Clone(wire.Engine)
		corrupt.Engine[at] ^= 0xff
		reblob, err := json.Marshal(corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dard.ResumeSession(reblob, nil); err == nil {
			t.Errorf("engine blob with byte %d flipped accepted", at)
		}
	}

	badVer := wire
	badVer.Version = 999
	reblob, err := json.Marshal(badVer)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dard.ResumeSession(reblob, nil); err == nil {
		t.Error("future snapshot version accepted")
	}
}

// TestSessionRejectsPacketEngine pins the flow-engine-only contract.
func TestSessionRejectsPacketEngine(t *testing.T) {
	_, err := dard.NewSession(dard.Scenario{Engine: dard.EnginePacket})
	if err == nil {
		t.Fatal("packet-engine session accepted")
	}
}
