package dard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the control-plane golden reports in testdata/controlplane")

// goldenDir holds one canonical Report JSON per control-plane cell.
const goldenDir = "testdata/controlplane"

// goldenTopologies are the fabrics every engine x scheduler x pattern
// cell runs on, with the per-host arrival rate that gives each a few
// dozen flows at most. The non-tree families use their smallest
// multipath sizes: a one-router-per-group dragonfly or a level-0 DCell
// is valid but has a single path per pair, where every policy
// degenerates to ECMP.
var goldenTopologies = []struct {
	name string
	spec TopologySpec
	rate float64
}{
	{"fattree", TopologySpec{Kind: FatTree, P: 4, LinkCapacity: 100e6}, 0.75},
	{"dragonfly", TopologySpec{Kind: Dragonfly, D: 2, A: 1, HostsPerToR: 1, LinkCapacity: 100e6}, 1.5},
	{"dcell", TopologySpec{Kind: DCell, N: 2, Level: 1, LinkCapacity: 100e6}, 1.5},
}

// goldenBase is the cell template, DARD over stride on the fat-tree:
// 100 Mbps links and a fast DARD loop, so elephants live long enough for
// monitors to query, schedule and shift while each packet-engine cell
// stays under a second.
func goldenBase() Scenario {
	return Scenario{
		Topology:       goldenTopologies[0].spec,
		RatePerHost:    goldenTopologies[0].rate,
		Scheduler:      SchedulerDARD,
		Pattern:        PatternStride,
		Duration:       2,
		FileSizeMB:     4,
		Seed:           3,
		ElephantAgeSec: 0.1,
		MaxTimeSec:     60,
		VLBIntervalSec: 0.3,
		DARD:           Tuning{QueryInterval: 0.1, ScheduleInterval: 0.2, ScheduleJitter: 0.2, DeltaBps: 1e6},
	}
}

// goldenAnnealingFileMB is the file size of the SimulatedAnnealing
// cells. The centralized round period is fixed at 5 s, so the base's
// 4 MB files would all finish before the first round; 32 MB keeps
// elephants alive through several rounds on every family.
const goldenAnnealingFileMB = 32

// goldenCells is the control-plane golden matrix: both engines x three
// families x every scheduler the engine runs (SimulatedAnnealing on the
// flow engine only, TeXCP on the packet engine only) x the three
// patterns, the fail-then-repair schedule on both engines, and DARD over
// a lossy, duplicating control channel on both engines.
func goldenCells() map[string]Scenario {
	cells := map[string]Scenario{}
	for _, engine := range []Engine{EngineFlow, EnginePacket} {
		schedulers := []Scheduler{SchedulerECMP, SchedulerPVLB, SchedulerDARD}
		if engine == EngineFlow {
			schedulers = append(schedulers, SchedulerAnnealing)
		} else {
			schedulers = append(schedulers, SchedulerTeXCP)
		}
		for _, topo := range goldenTopologies {
			for _, sch := range schedulers {
				for _, pat := range []Pattern{PatternStride, PatternRandom, PatternStaggered} {
					s := goldenBase()
					s.Engine = engine
					s.Topology = topo.spec
					s.RatePerHost = topo.rate
					s.Scheduler = sch
					s.Pattern = pat
					if sch == SchedulerAnnealing {
						s.FileSizeMB = goldenAnnealingFileMB
					}
					cells[string(engine)+"_"+topo.name+"_"+string(sch)+"_"+string(pat)] = s
				}
			}
		}
		cells[string(engine)+"_failure"] = failureScenario(engine)
		lossy := goldenBase()
		lossy.Engine = engine
		lossy.DARD.CtlLossProb = 0.2
		lossy.DARD.CtlDupProb = 0.1
		cells[string(engine)+"_lossy-control"] = lossy
	}
	return cells
}

// goldenCheckpoints are the checkpoint cells: a flow-engine session of
// each checkpointing scheduler, paused at a fixed event while its
// control plane has state to carry. DARD pauses with monitors live,
// pVLB with re-pick timers pending, and SimulatedAnnealing after its
// first round (t = 5 s) has filled the path-class memory.
var goldenCheckpoints = map[string]struct {
	sched  Scheduler
	events int64
}{
	"flow_checkpoint":                    {SchedulerDARD, 150},
	"flow_checkpoint_pVLB":               {SchedulerPVLB, 80},
	"flow_checkpoint_SimulatedAnnealing": {SchedulerAnnealing, 60},
}

// checkpointCell runs a flow-engine session to a fixed event, snapshots
// it, and finishes the run from the snapshot bytes. The golden records
// the snapshot's SHA-256 next to the final report, so any change to the
// checkpoint format or to the control-plane state it carries shows up
// as a diff.
func checkpointCell(t *testing.T, sch Scheduler, events int64) any {
	s := goldenBase()
	s.Scheduler = sch
	if sch == SchedulerAnnealing {
		s.FileSizeMB = goldenAnnealingFileMB
	}
	sess, err := NewSession(s)
	if err != nil {
		t.Fatal(err)
	}
	sess.PauseAfter(events)
	if _, err := sess.Run(context.Background()); !errors.Is(err, ErrPaused) {
		t.Fatalf("session did not pause at event %d: %v", events, err)
	}
	blob, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	resumed, err := ResumeSession(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return struct {
		CheckpointEvents int64
		CheckpointSHA256 string
		Report           *Report
	}{events, hex.EncodeToString(sum[:]), rep}
}

// TestControlPlaneGolden pins every control-plane cell's canonical
// Report JSON to testdata/controlplane. A refactor of the schedulers or
// of either engine's host surface must leave every file byte-identical;
// regenerate with `go test -run TestControlPlaneGolden -update .` only
// when a change in behaviour is intended, and list the changed cells
// in the commit.
func TestControlPlaneGolden(t *testing.T) {
	cells := map[string]func(t *testing.T) any{}
	for name, cp := range goldenCheckpoints {
		cp := cp
		cells[name] = func(t *testing.T) any { return checkpointCell(t, cp.sched, cp.events) }
	}
	shifted := map[Engine]bool{}
	annealed := false
	for name, s := range goldenCells() {
		s := s
		cells[name] = func(t *testing.T) any {
			rep, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if s.Scheduler == SchedulerDARD && rep.DARDShifts > 0 {
				shifted[s.Engine] = true
			}
			if s.Scheduler == SchedulerAnnealing && len(rep.PathSwitches) > 0 && rep.PathSwitches[len(rep.PathSwitches)-1] > 0 {
				annealed = true
			}
			return rep
		}
	}
	names := make([]string, 0, len(cells))
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := cells[name]
		t.Run(name, func(t *testing.T) {
			got, err := json.MarshalIndent(run(t), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join(goldenDir, name+".json")
			if *updateGolden {
				if err := os.MkdirAll(goldenDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report differs from %s:\ngot:\n%s", path, got)
			}
		})
	}
	// The matrix must exercise the control loop, not just run it: on
	// each engine at least one DARD cell has to shift a flow.
	for _, engine := range []Engine{EngineFlow, EnginePacket} {
		if !shifted[engine] {
			t.Errorf("no DARD cell on the %s engine made a shift", engine)
		}
	}
	if !annealed {
		t.Error("no SimulatedAnnealing cell moved a flow")
	}
}
