package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"dard"
	"dard/internal/parallel"
	"dard/internal/trace"
)

// simWorkload is one of the two simulation workloads. A run simulates
// variants scenarios, each seeded from the run seed, in passes until
// the measured time is up. Several scenarios per pass average out how
// much one seed's traffic happens to congest, which is most of the
// run-to-run spread of a single simulation; several passes let a median
// shrug off a burst of load from elsewhere on the host.
type simWorkload struct {
	name     string
	variants int
	// session runs the flow engine through NewSession/Session.Run, so
	// set-up includes NewSession and the run also checks that a run
	// resumed from a mid-run snapshot reports what the uninterrupted
	// run reported. Otherwise the packet engine runs through
	// Scenario.Run on a pre-built topology.
	session  bool
	scenario func(seed int64) dard.Scenario
}

// testbedTuning is the §4.2 testbed's DARD control loop: query every
// 0.5 s, schedule every 1 s plus up to 1 s of jitter. At the paper's
// default 5 s + 5 s schedule, a window short enough to simulate many
// times a run would end before the first scheduling round.
var testbedTuning = dard.Tuning{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 1}

// flowDard is the paper's large-scale fabric (§4.3) on the flow engine:
// DARD on a p=32 fat-tree switching fabric under staggered traffic,
// about a thousand flows per scenario. The control plane and the
// max-min recompute share its work.
var flowDard = simWorkload{
	name:     "flow-dard",
	variants: 4,
	session:  true,
	scenario: func(seed int64) dard.Scenario {
		return dard.Scenario{
			Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 32, HostsPerToR: 1},
			Scheduler:      dard.SchedulerDARD,
			Pattern:        dard.PatternStaggered,
			RatePerHost:    1,
			Duration:       2,
			FileSizeMB:     64,
			ElephantAgeSec: 0.5,
			DARD:           testbedTuning,
			Seed:           seed,
		}
	},
}

// packetDard is the §4.2 testbed on the packet engine with the testbed
// DARD tuning: simnet and tcp do almost all the work and flowsim none.
// It moves many 1 MB transfers (about 150 per scenario) rather than a
// few 8 MB ones: the Poisson flow count then varies by about 4% from
// seed to seed instead of 11%, and so does the work in a pass. The
// elephant age is cut to match, so DARD still moves flows.
var packetDard = simWorkload{
	name:     "packet-dard",
	variants: 4,
	scenario: func(seed int64) dard.Scenario {
		return dard.Scenario{
			Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4, LinkCapacity: 100e6},
			Engine:         dard.EnginePacket,
			Scheduler:      dard.SchedulerDARD,
			Pattern:        dard.PatternStride,
			RatePerHost:    4.8,
			Duration:       2,
			FileSizeMB:     1,
			ElephantAgeSec: 0.1,
			DARD:           testbedTuning,
			Seed:           seed,
		}
	},
}

// inputSeed derives the seed of a run's k-th input from the run seed
// and the workload name.
func inputSeed(seed int64, workload string, k int) int64 {
	return parallel.Seed(seed, workload+"/"+strconv.Itoa(k))
}

// execution is one simulation from set-up to report.
type execution struct {
	setup, run  float64 // wall seconds
	cpu, runCPU float64 // process CPU seconds: set-up and run, run alone
	alloc       uint64  // heap bytes allocated by set-up and run
	report      *dard.Report
	reportJSON  []byte
	events      int64  // flow engine events dispatched
	snapshot    []byte // session snapshot taken at the requested pause
	jsonl       int    // bytes trace.WriteJSONL produced (traced only)
	kinds       map[trace.Kind]int
}

// setup builds the topology and, on the flow engine, the session.
func (w simWorkload) setup(sc dard.Scenario, spans *spanLog, parent spanID) (dard.Scenario, *dard.Session, float64, error) {
	t := spans.begin("topology.build", parent, "")
	topo, err := sc.Topology.Build()
	secs := t.end()
	if err != nil {
		return sc, nil, secs, fmt.Errorf("topology build: %w", err)
	}
	sc.Topo = topo
	if !w.session {
		return sc, nil, secs, nil
	}
	t = spans.begin("session.new", parent, "")
	sess, err := dard.NewSession(sc)
	secs += t.end()
	if err != nil {
		return sc, nil, secs, fmt.Errorf("new session: %w", err)
	}
	return sc, sess, secs, nil
}

// refPerSimulation is how many reference kernel runs precede each
// simulation: a kernel run varies by about 20% (interquartile range
// over median), so a run's median needs many.
const refPerSimulation = 6

// minSetupBatch is the least time one set-up sample covers: a set-up much
// shorter than this is repeated and the sample is the mean, so that the
// clock's resolution and a stray collection weigh little.
const minSetupBatch = 5 * time.Millisecond

// setupBatch times set-ups of sc, repeated until they cover
// minSetupBatch, and returns the seconds per set-up.
func (w simWorkload) setupBatch(sc dard.Scenario) (float64, error) {
	n, t0 := 0, time.Now()
	for n == 0 || time.Since(t0) < minSetupBatch {
		if _, _, _, err := w.setup(sc, nil, 0); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// execute runs one simulation. A traced execution records into a trace
// recorder and writes its JSONL; pauseAt > 0 pauses the flow engine
// after that many events, snapshots, and continues the same session.
func (w simWorkload) execute(sc dard.Scenario, spans *spanLog, traced bool, pauseAt int64) (*execution, error) {
	var rec *trace.Recorder
	if traced {
		rec = trace.NewRecorder(trace.RecorderOptions{})
		sc.Tracer = rec
	}
	ex := &execution{}
	unit := spans.begin("simulation", 0, "")
	defer unit.end()
	a0, c0 := allocated(), cpuSeconds()
	sc, sess, setup, err := w.setup(sc, spans, unit.ID())
	ex.setup = setup
	if err != nil {
		return nil, err
	}
	var rep *dard.Report
	r0 := cpuSeconds()
	var snapCPU float64
	if w.session {
		if pauseAt > 0 {
			sess.PauseAfter(pauseAt)
		}
		t := spans.begin("flowsim.run", unit.ID(), "")
		rep, err = sess.Run(context.Background())
		var snapSecs float64
		if pauseAt > 0 {
			if !errors.Is(err, dard.ErrPaused) {
				t.end()
				return nil, fmt.Errorf("run did not pause after %d events: %v", pauseAt, err)
			}
			s, s0 := spans.begin("snap.snapshot", t.ID(), ""), cpuSeconds()
			ex.snapshot, err = sess.Snapshot()
			snapSecs, snapCPU = s.end(), cpuSeconds()-s0
			if err != nil {
				t.end()
				return nil, fmt.Errorf("snapshot: %w", err)
			}
			rep, err = sess.Run(context.Background())
		}
		ex.run = t.end() - snapSecs
		ex.events = sess.Events()
	} else {
		t := spans.begin("psim.run", unit.ID(), "")
		rep, err = sc.Run()
		ex.run = t.end()
	}
	c1 := cpuSeconds()
	ex.runCPU, ex.cpu = c1-r0-snapCPU, c1-c0-snapCPU
	ex.alloc = allocated() - a0
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	ex.report = rep
	if ex.reportJSON, err = json.Marshal(rep); err != nil {
		return nil, err
	}
	if traced {
		ex.kinds = map[trace.Kind]int{}
		for _, e := range rec.Events() {
			ex.kinds[e.Kind]++
		}
		t := spans.begin("trace.write", unit.ID(), "")
		var cw countingWriter
		err := trace.WriteJSONL(&cw, rec.Take())
		t.end()
		if err != nil {
			return nil, fmt.Errorf("trace write: %w", err)
		}
		ex.jsonl = cw.n
	}
	return ex, nil
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// run is the workload's measured loop. Its unit of service, a "job",
// is one pass: set up and simulate each of the run's scenarios once.
// Untraced, passes repeat until the time is up; the first pass is the
// reference every later pass must reproduce byte for byte. Traced, the
// first pass runs untraced (the reference and the tracing-overhead
// base) and every later pass is traced and profiled. On the flow engine
// the second pass pauses its first scenario mid-run and snapshots it;
// after the loop the snapshot is resumed and must finish with the
// reference report.
//
// Pass times (run_s, job_p50_s, jobs_per_s) are process CPU seconds:
// a simulation runs on one goroutine, so they track wall time on an
// idle host, but they do not grow with hypervisor steal, which on a
// shared host moves wall time by more than any bound worth setting.
// Set-up and span times stay wall seconds. Untraced, the reference
// kernel runs refPerSimulation times before every simulation, and the
// end-to-end times are scaled by it (hostref.go).
func (w simWorkload) run(cfg config) (*result, error) {
	res := newResult()
	scen := make([]dard.Scenario, w.variants)
	for k := range scen {
		scen[k] = w.scenario(inputSeed(cfg.seed, w.name, k))
	}
	host := &hostRef{}
	if !cfg.traced {
		host.samples(refPerSimulation)
	}
	var (
		setups   []float64 // seconds per set-up, one batch before each simulation
		spans    *spanLog
		prof     *profiler
		ref      = make([]*execution, w.variants)
		firstTr  = make([]*execution, w.variants)
		snapshot []byte
		runs     []float64 // CPU seconds in the run calls, per complete pass
		turns    []float64 // CPU seconds of set-up and run
		walls    []float64 // wall seconds of set-up and run
		allocs   []float64
		baseRuns []float64
		tracedN  int
	)
	// A pass starts while it is expected to end no later than half a
	// pass past the deadline, so runs measure for about cfg.seconds.
	start, lastPass := time.Now(), 0.0
	for pass := 0; pass < 2 || time.Since(start).Seconds()+lastPass/2 < cfg.seconds; pass++ {
		passStart := time.Now()
		traced := cfg.traced && pass > 0
		if traced && prof == nil {
			spans = newSpanLog()
			var err error
			if prof, err = startProfiles(); err != nil {
				return nil, err
			}
		}
		var run, turn, wall, alloc float64
		complete := true
		for k := range scen {
			var pauseAt int64
			if w.session && pass == 1 && k == 0 && ref[k] != nil {
				pauseAt = ref[k].events / 2
			}
			if !cfg.traced {
				host.samples(refPerSimulation)
				secs, err := w.setupBatch(scen[k])
				if err != nil {
					return nil, err
				}
				setups = append(setups, secs)
			}
			ex, err := w.execute(scen[k], spans, traced, pauseAt)
			res.ops.op(err)
			if err != nil {
				complete = false
				continue
			}
			res.ops.check(ex.report.Unfinished == 0, "%s scenario %d: %d of %d flows unfinished", w.name, k, ex.report.Unfinished, ex.report.Flows)
			switch {
			case ref[k] == nil:
				ref[k] = ex
			case traced:
				res.ops.check(bytes.Equal(ex.reportJSON, ref[k].reportJSON), "%s scenario %d: traced report differs from untraced report", w.name, k)
			default:
				res.ops.check(bytes.Equal(ex.reportJSON, ref[k].reportJSON), "%s scenario %d: repeated run reported differently", w.name, k)
			}
			if ex.snapshot != nil {
				snapshot = ex.snapshot
			}
			if traced {
				tracedN++
				if firstTr[k] == nil {
					firstTr[k] = ex
				}
			}
			run += ex.runCPU
			turn += ex.cpu
			wall += ex.setup + ex.run
			alloc += float64(ex.alloc)
		}
		lastPass = time.Since(passStart).Seconds()
		if !complete {
			continue
		}
		runs = append(runs, run)
		turns = append(turns, turn)
		walls = append(walls, wall)
		allocs = append(allocs, alloc)
		if cfg.traced && !traced {
			baseRuns = append(baseRuns, run)
		}
	}
	if prof != nil {
		if err := prof.stop(res.layer, tracedN); err != nil {
			return nil, err
		}
	}
	res.e2e["peak_rss_mb"] = peakRSS() / 1e6

	if w.session {
		w.checkResume(res, spans, snapshot, ref[0])
	}

	digest := sha256.New()
	var transfer []float64
	flows := 0
	for _, ex := range ref {
		if ex == nil {
			return res, nil // every execution of a scenario failed; the ledger says why
		}
		digest.Write(ex.reportJSON)
		transfer = append(transfer, ex.report.MeanTransferTime())
		flows += ex.report.Flows
	}
	res.digest = "sha256:" + hex.EncodeToString(digest.Sum(nil))

	res.e2e["alloc_mb"] = median(allocs) / 1e6
	res.e2e["mean_transfer_s"] = mean(transfer)
	res.notef("inputs: %d scenarios per pass, %d flows in all (seeds %v)", len(ref), flows, seeds(scen))
	res.notef("samples: setup_s n=%d batches of at least %v; run_s, alloc_mb and job_p50_s n=%d passes", len(setups), minSetupBatch, len(runs))
	res.notef("measured: setup %.6g wall s, run %.6g CPU s and job %.6g CPU s (wall %.6g s) per pass",
		median(setups), median(runs), median(turns), median(walls))
	if !cfg.traced {
		cs := host.cpuScale()
		res.e2e["setup_s"] = median(setups) * host.wallScale()
		res.e2e["run_s"] = median(runs) * cs
		res.e2e["jobs_per_s"] = 1 / (median(turns) * cs)
		res.e2e["job_p50_s"] = median(turns) * cs
		res.notef("%s", host.note())
	} else {
		w.layerMetrics(res, spans, firstTr, runs[len(baseRuns):], baseRuns)
		res.spanLog = spans
	}
	return res, nil
}

// checkResume resumes the mid-run snapshot and checks that it finishes
// with the uninterrupted reference report.
func (w simWorkload) checkResume(res *result, spans *spanLog, snapshot []byte, ref *execution) {
	if snapshot == nil || ref == nil {
		res.ops.check(false, "%s: no mid-run snapshot was taken", w.name)
		return
	}
	t := spans.begin("snap.resume", 0, "")
	sess, err := dard.ResumeSession(snapshot, nil)
	t.end()
	if err != nil {
		res.ops.op(fmt.Errorf("resume session: %w", err))
		return
	}
	t = spans.begin("flowsim.resumed_run", 0, "")
	rep, err := sess.Run(context.Background())
	t.end()
	if err != nil {
		res.ops.op(fmt.Errorf("resumed run: %w", err))
		return
	}
	got, err := json.Marshal(rep)
	res.ops.check(err == nil && bytes.Equal(got, ref.reportJSON), "%s: run resumed from a snapshot reported differently from the uninterrupted run", w.name)
}

// layerMetrics fills the traced run's per-layer metrics. Counts come
// from the first traced pass over the scenarios, so they repeat exactly
// at a fixed seed; times are medians of the spans' self time.
func (w simWorkload) layerMetrics(res *result, spans *spanLog, first []*execution, tracedRuns, baseRuns []float64) {
	l := res.layer
	self := spans.selfDurations()
	runSpan := "psim.run"
	if w.session {
		runSpan = "flowsim.run"
	}
	l["topology.build_s"] = median(self["topology.build"])
	if w.session {
		l["session.new_s"] = median(self["session.new"])
		l["snap.snapshot_s"] = median(self["snap.snapshot"])
		l["snap.resume_s"] = median(self["snap.resume"])
	}
	l[runSpan+"_s"] = median(self[runSpan])
	l["trace.write_s"] = median(self["trace.write"])
	l["trace.overhead"] = median(tracedRuns) / median(baseRuns)
	res.notef("trace.overhead base: traced pass run %.6g CPU s (n=%d) over untraced %.6g CPU s (n=%d)",
		median(tracedRuns), len(tracedRuns), median(baseRuns), len(baseRuns))

	var jsonl, retx []float64
	var events int64
	var runSecs, coreUtil float64
	for _, ex := range first {
		if ex == nil {
			continue
		}
		rep := ex.report
		jsonl = append(jsonl, float64(ex.jsonl))
		events += ex.events
		runSecs += ex.run
		l["dard.rounds"] += float64(rep.DARDRounds)
		if w.session {
			l["dard.shifts"] += float64(rep.DARDShifts)
		} else {
			// Packet reports carry per-flow switch counts, not the
			// controller's tally.
			l["dard.shifts"] += sum(rep.PathSwitches)
		}
		l["ctlmsg.control_mb"] += rep.ControlBytes / 1e6
		l["trace.control_msgs"] += float64(ex.kinds[trace.KindControlMsg])
		l["tcp.retransmits"] += float64(ex.kinds[trace.KindRetransmit])
		l["simnet.drops"] += float64(ex.kinds[trace.KindDrop] + ex.kinds[trace.KindFailDrop])
		if !w.session {
			retx = append(retx, rep.RetxRateMean())
			coreUtil += rep.CoreUtilization / float64(len(first))
		}
		if ex.snapshot != nil {
			l["snap.bytes"] = float64(len(ex.snapshot))
		}
	}
	l["trace.jsonl_mb"] = median(jsonl) / 1e6
	if w.session {
		l["flowsim.events"] = float64(events)
		l["flowsim.us_per_event"] = runSecs / float64(events) * 1e6
	} else {
		l["tcp.retx_rate_mean"] = mean(retx)
		l["psim.core_util"] = coreUtil
	}
	if l["dard.rounds"] > 0 {
		l["dard.shift_ratio"] = l["dard.shifts"] / l["dard.rounds"]
	}
}

func seeds(scen []dard.Scenario) []int64 {
	out := make([]int64, len(scen))
	for i, s := range scen {
		out[i] = s.Seed
	}
	return out
}
