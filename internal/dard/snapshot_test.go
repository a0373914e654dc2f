package dard

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/snap"
	"dard/internal/topology"
	"dard/internal/workload"
)

// snapshotConfig is a p=4 DARD run with enough going on that a
// checkpoint carries every part of the controller's state: a stride
// workload of elephants (shared monitors, assembled path state
// vectors, scheduling rounds) and a fabric link that fails and is
// repaired mid-run (dead-path masks). Each call builds a fresh
// controller, as a restore must.
func snapshotConfig(t *testing.T, ft *topology.FatTree, faults ctlmsg.Faults) flowsim.Config {
	t.Helper()
	src, err := workload.NewOpenPoisson(workload.NewLayout(ft), workload.Config{
		Pattern:     workload.Stride{N: len(ft.Hosts()), Step: 4},
		RatePerHost: 1.5,
		Duration:    4,
		SizeBytes:   24 << 20,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	l := ft.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[8])).AppendLinks(0, nil)[1]
	return flowsim.Config{
		Net:         ft,
		Controller:  New(Options{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5, Faults: faults}),
		Arrivals:    src,
		Seed:        5,
		ElephantAge: 0.25,
		LinkEvents: []topology.LinkEvent{
			{At: 1, Link: l, Down: true}, {At: 1, Link: g.Reverse(l), Down: true},
			{At: 2.5, Link: l, Down: false}, {At: 2.5, Link: g.Reverse(l), Down: false},
		},
		MaxTime: 60,
	}
}

// TestSnapshotResumeMatchesUninterrupted pauses a DARD run at several
// fractions of its events, checkpoints it, restores the checkpoint into
// a fresh controller and finishes the run. Every resumed run must
// report exactly what the uninterrupted run reports, and the restored
// state must re-encode to the checkpoint's bytes.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	ft := fatTree(t)
	whole, err := flowsim.New(snapshotConfig(t, ft, ctlmsg.Faults{}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Unfinished != 0 {
		t.Fatalf("%d unfinished flows in the uninterrupted run", want.Unfinished)
	}

	n := whole.Events()
	for _, pauseAt := range []int64{n / 10, n / 3, n / 2, 3 * n / 4} {
		s, err := flowsim.New(snapshotConfig(t, ft, ctlmsg.Faults{}))
		if err != nil {
			t.Fatal(err)
		}
		s.PauseAfter(pauseAt)
		if _, err := s.Run(); !errors.Is(err, flowsim.ErrPaused) {
			t.Fatalf("pause after %d events: got %v, want ErrPaused", pauseAt, err)
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := flowsim.Restore(snapshotConfig(t, ft, ctlmsg.Faults{}), blob)
		if err != nil {
			t.Fatalf("pause after %d events: restore: %v", pauseAt, err)
		}
		again, err := resumed.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Errorf("pause after %d events: restored state re-encodes to different bytes", pauseAt)
		}
		got, err := resumed.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pause after %d events: resumed results differ from the uninterrupted run", pauseAt)
		}
	}
}

// TestSnapshotRefusesFaultyControlPlane pins that a run with
// control-channel faults cannot be checkpointed or restored: the
// per-switch channels hold private RNG streams and retry timers that a
// snapshot cannot describe.
func TestSnapshotRefusesFaultyControlPlane(t *testing.T) {
	faults := ctlmsg.Faults{LossProb: 0.1, Seed: 3}
	ctl := New(Options{Faults: faults})
	if err := ctl.SnapshotState(nil, snap.NewEncoder(1)); !errors.Is(err, flowsim.ErrUnsnapshottable) {
		t.Errorf("SnapshotState with faults: got %v, want ErrUnsnapshottable", err)
	}
	dec, err := snap.NewDecoder(snap.NewEncoder(1).Finish())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.RestoreState(nil, dec); !errors.Is(err, flowsim.ErrUnsnapshottable) {
		t.Errorf("RestoreState with faults: got %v, want ErrUnsnapshottable", err)
	}

	s, err := flowsim.New(snapshotConfig(t, fatTree(t), faults))
	if err != nil {
		t.Fatal(err)
	}
	s.PauseAfter(40)
	if _, err := s.Run(); !errors.Is(err, flowsim.ErrPaused) {
		t.Fatalf("got %v, want ErrPaused", err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, flowsim.ErrUnsnapshottable) {
		t.Errorf("Snapshot of a faulty DARD run: got %v, want ErrUnsnapshottable", err)
	}
}
