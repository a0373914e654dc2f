package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dard"
	"dard/internal/serve"
)

// serve-jobs is a closed loop: each client submits a job, streams its
// events to the end, fetches its report, and only then submits the
// next, as a daemon client waiting on its report does.
const (
	// jobsPerEpoch bounds one server's lifetime. The daemon keeps every
	// finished job with its event history and checkpoint in memory, so
	// a fresh server per epoch keeps the footprint of a long run flat.
	jobsPerEpoch = 100
	// minEpochJobs is the fewest jobs an epoch serves even past the
	// deadline, so that a traced epoch always holds a restore.
	minEpochJobs = restoreEvery
	// referenceJobs is how many jobs every run completes whatever the
	// time allowed; the digest and mean_transfer_s cover exactly these,
	// so they repeat at a fixed seed.
	referenceJobs = 100
	// restoreEvery: every k-th job is also restored from its checkpoint
	// and must finish with the original job's report.
	restoreEvery = 10
	// checkEvery: every k-th job's report is compared with Scenario.Run
	// of the same scenario, after the measured loop.
	checkEvery = 20
	// refEveryCheck: the reference kernel runs before every k-th
	// report check, so that run_s is scaled by the host's speed while
	// the checks ran.
	refEveryCheck = 5
	// checkpointAfter is the event boundary each job checkpoints at;
	// every job dispatches several hundred events.
	checkpointAfter = 250
)

// jobScenario is the i-th job of a run: a small DARD flow job.
func jobScenario(seed int64, i int) dard.Scenario {
	return dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 8},
		Scheduler:   dard.SchedulerDARD,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    3,
		FileSizeMB:  32,
		Seed:        inputSeed(seed, "serve-jobs", i),
	}
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Report json.RawMessage `json:"report"`
}

// serveRun is one serve-jobs run's shared state.
type serveRun struct {
	cfg     config
	res     *result
	spans   *spanLog
	workers int
	// host, on untraced runs, collects the reference kernel: twice
	// before each epoch, outside the timed loop, and before every
	// refEveryCheck-th report check (hostref.go).
	host *hostRef

	next atomic.Int64 // next job index

	mu      sync.Mutex
	turns   []float64      // submit-to-report seconds, per job
	streamB []float64      // event-stream bytes, per job
	reports map[int][]byte // reports of reference and checked jobs
}

func runServeJobs(cfg config) (*result, error) {
	n := min(2, runtime.NumCPU())
	s := &serveRun{cfg: cfg, res: newResult(), workers: n, reports: map[int][]byte{}}
	if !cfg.traced {
		s.host = &hostRef{}
	}

	var setups []float64
	for i := 0; i < 10; i++ {
		secs, err := s.setupOnly()
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}

	var (
		prof     *profiler
		baseTurn float64
		baseN    int
		loopSecs float64
		rates    []float64 // jobs per second of each full epoch
		jobs     int
		epochs   int
	)
	a0 := allocated()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// Traced, the first half of the time runs untraced as the overhead
	// base, the second half traced and profiled; each gets an epoch.
	tracedFrom := start.Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for epochs == 0 || time.Now().Before(deadline) || s.next.Load() < referenceJobs || (cfg.traced && prof == nil) {
		if cfg.traced && prof == nil && (time.Now().After(tracedFrom) || !time.Now().Before(deadline)) {
			baseTurn, baseN = median(s.turns), len(s.turns)
			s.turns, s.streamB = nil, nil
			s.spans = newSpanLog()
			a0 = allocated()
			jobs, loopSecs, rates = 0, 0, nil
			var err error
			if prof, err = startProfiles(); err != nil {
				return nil, err
			}
		}
		if s.host != nil {
			s.host.samples(2)
		}
		setup, done, secs, err := s.epoch(epochs, n, deadline)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		jobs += done
		loopSecs += secs
		if done >= jobsPerEpoch {
			rates = append(rates, float64(done)/secs)
		}
		epochs++
	}
	alloc := allocated() - a0
	if prof != nil {
		if err := prof.stop(s.res.layer, jobs); err != nil {
			return nil, err
		}
	}
	s.res.e2e["peak_rss_mb"] = peakRSS() / 1e6

	runs := s.checkReports()
	digest := sha256.New()
	var transfer []float64
	l := s.res.layer
	for i := 0; i < referenceJobs; i++ {
		raw := s.reports[i]
		if raw == nil {
			return s.res, nil // the job failed; the ledger says why
		}
		digest.Write(raw)
		var rep dard.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("job %d report: %w", i, err)
		}
		transfer = append(transfer, rep.MeanTransferTime())
		l["dard.rounds"] += float64(rep.DARDRounds)
		l["dard.shifts"] += float64(rep.DARDShifts)
		l["ctlmsg.control_mb"] += rep.ControlBytes / 1e6
	}
	s.res.digest = "sha256:" + hex.EncodeToString(digest.Sum(nil))

	e := s.res.e2e
	e["alloc_mb"] = float64(alloc) / 1e6 / float64(jobs)
	e["mean_transfer_s"] = mean(transfer)
	if s.host != nil {
		ws := s.host.wallScale()
		e["setup_s"] = median(setups) * ws
		e["run_s"] = median(runs) * s.host.cpuScale()
		e["jobs_per_s"] = median(rates) / ws
		e["job_p50_s"] = median(s.turns) * ws
	}
	s.res.notef("inputs: %d jobs in %d epochs (first %d are the reference), %d clients, %d workers, closed loop over loopback HTTP",
		jobs, epochs, referenceJobs, n, n)
	s.res.notef("samples: setup_s n=%d, job_p50_s n=%d, run_s n=%d (Scenario.Run CPU seconds of every %dth job), jobs_per_s n=%d epochs of %d jobs",
		len(setups), len(s.turns), len(runs), checkEvery, len(rates), jobsPerEpoch)
	s.res.notef("measured: setup %.6g wall s, run %.6g CPU s, %.6g jobs per wall s (over the whole loop %.6g), job turnaround %.6g wall s",
		median(setups), median(runs), median(rates), float64(jobs)/loopSecs, median(s.turns))
	if s.host != nil {
		s.res.notef("%s", s.host.note())
	}
	if q, err := percentile(s.turns, 0.9); err == nil {
		s.res.notef("job_p90_s: %.6g s (n=%d, %d beyond)", q.Value, q.N, q.Beyond)
		l["serve.job_p90_s"] = q.Value
	} else {
		s.res.notef("job_p90_s: not reported: %v", err)
	}
	if cfg.traced {
		self := s.spans.selfDurations()
		for _, name := range []string{"serve.submit", "serve.stream", "serve.status", "serve.checkpoint", "serve.restore",
			"topology.build", "session.new", "flowsim.run"} {
			l[name+"_s"] = median(self[name])
		}
		l["serve.stream_mb"] = mean(s.streamB) / 1e6
		traced := median(s.turns)
		l["trace.overhead"] = traced / baseTurn
		s.res.notef("trace.overhead base: traced job turnaround %.6g s (n=%d) over untraced %.6g s (n=%d)", traced, len(s.turns), baseTurn, baseN)
		s.res.spanLog = s.spans
	}
	return s.res, nil
}

// newServer starts a daemon on loopback and waits for its first
// healthy answer; the returned seconds are the set-up time.
func (s *serveRun) newServer() (*serve.Server, *httptest.Server, float64, error) {
	t := s.spans.begin("serve.setup", 0, "")
	srv := serve.New(serve.Options{Workers: s.workers})
	hs := httptest.NewServer(srv)
	_, err := call(hs.Client(), http.MethodGet, hs.URL+"/healthz", nil, http.StatusOK)
	secs := t.end()
	if err != nil {
		hs.Close()
		return nil, nil, 0, fmt.Errorf("healthz: %w", err)
	}
	return srv, hs, secs, nil
}

func stopServer(srv *serve.Server, hs *httptest.Server) error {
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// setupOnly measures one server set-up with no jobs.
func (s *serveRun) setupOnly() (float64, error) {
	srv, hs, secs, err := s.newServer()
	if err != nil {
		return 0, err
	}
	return secs, stopServer(srv, hs)
}

// epoch runs the closed loop against one fresh server until it has
// served jobsPerEpoch jobs or the deadline passes (and, either way,
// until the reference jobs are done and it has served minEpochJobs).
func (s *serveRun) epoch(epoch, clients int, deadline time.Time) (setup float64, jobs int, secs float64, err error) {
	srv, hs, setup, err := s.newServer()
	if err != nil {
		return 0, 0, 0, err
	}
	var (
		wg     sync.WaitGroup
		served atomic.Int64
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := hs.Client()
			for {
				n := served.Load()
				if n >= jobsPerEpoch || (n >= minEpochJobs && time.Now().After(deadline) && s.next.Load() >= referenceJobs) {
					return
				}
				served.Add(1)
				s.job(client, hs.URL, epoch, int(s.next.Add(1)-1))
			}
		}()
	}
	wg.Wait()
	secs = time.Since(start).Seconds()
	if err := stopServer(srv, hs); err != nil {
		return 0, 0, 0, fmt.Errorf("server shutdown: %w", err)
	}
	return setup, int(served.Load()), secs, nil
}

// job runs job i end to end, recording the outcome in the ledger. Its
// spans carry the job ID as "<epoch>/<server job ID>": each epoch's
// server numbers its jobs afresh.
func (s *serveRun) job(c *http.Client, base string, epoch, i int) {
	sc := jobScenario(s.cfg.seed, i)
	body, err := json.Marshal(map[string]any{"scenario": sc, "checkpoint_after": checkpointAfter})
	if err != nil {
		s.res.ops.op(err)
		return
	}
	root := s.spans.begin("job", 0, "")
	start := time.Now()
	t := s.spans.begin("serve.submit", root.ID(), "")
	raw, err := call(c, http.MethodPost, base+"/jobs", body, http.StatusCreated)
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	tag := fmt.Sprintf("%d/%s", epoch, st.ID)
	t.setJob(tag)
	root.setJob(tag)
	t.end()
	if err != nil {
		root.end()
		s.res.ops.op(fmt.Errorf("job %d submit: %w", i, err))
		return
	}
	streamed, st, err := s.follow(c, base, st.ID, tag, root.ID())
	turn := time.Since(start).Seconds()
	root.end()
	if err == nil {
		err = reportOK(st)
	}
	s.res.ops.op(errorf(err, "job %d (%s)", i, st.ID))
	if err != nil {
		return
	}
	s.mu.Lock()
	s.turns = append(s.turns, turn)
	s.streamB = append(s.streamB, float64(streamed))
	if i < referenceJobs || i%checkEvery == 0 {
		s.reports[i] = st.Report
	}
	s.mu.Unlock()
	if i%restoreEvery == 0 {
		s.restore(c, base, epoch, i, st)
	}
}

// follow streams job id's events to the end and fetches its status.
func (s *serveRun) follow(c *http.Client, base, id, tag string, parent spanID) (int64, jobStatus, error) {
	var st jobStatus
	t := s.spans.begin("serve.stream", parent, tag)
	n, err := stream(c, base+"/jobs/"+id+"/events")
	t.end()
	if err != nil {
		return n, st, fmt.Errorf("events: %w", err)
	}
	t = s.spans.begin("serve.status", parent, tag)
	raw, err := call(c, http.MethodGet, base+"/jobs/"+id, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	t.end()
	if err != nil {
		return n, st, fmt.Errorf("status: %w", err)
	}
	return n, st, nil
}

// restore fetches job i's checkpoint, restores it as a new job, waits
// for that job to finish, and checks it reported what the original did.
func (s *serveRun) restore(c *http.Client, base string, epoch, i int, orig jobStatus) {
	tag := fmt.Sprintf("%d/%s", epoch, orig.ID)
	root := s.spans.begin("restore", 0, tag)
	defer root.end()
	t := s.spans.begin("serve.checkpoint", root.ID(), tag)
	blob, err := call(c, http.MethodGet, base+"/jobs/"+orig.ID+"/checkpoint", nil, http.StatusOK)
	t.end()
	if err != nil {
		s.res.ops.op(fmt.Errorf("job %d checkpoint: %w", i, err))
		return
	}
	t = s.spans.begin("serve.restore", root.ID(), tag)
	raw, err := call(c, http.MethodPost, base+"/jobs/restore", blob, http.StatusCreated)
	var st jobStatus
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	t.end()
	if err != nil {
		s.res.ops.op(fmt.Errorf("job %d restore: %w", i, err))
		return
	}
	_, st, err = s.follow(c, base, st.ID, fmt.Sprintf("%d/%s", epoch, st.ID), root.ID())
	if err == nil {
		err = reportOK(st)
	}
	if err == nil && !bytes.Equal(st.Report, orig.Report) {
		err = fmt.Errorf("restored job %s reported differently from the original", st.ID)
	}
	s.res.ops.op(errorf(err, "job %d restore", i))
}

// checkReports compares every checked job's served report with
// Scenario.Run of the same scenario and returns the Scenario.Run times
// in process CPU seconds, as the simulation workloads time runs.
// Traced, it also runs each scenario through the session path with
// spans around topology build, session construction and the run.
func (s *serveRun) checkReports() []float64 {
	idx := make([]int, 0, len(s.reports))
	for i := range s.reports {
		if i%checkEvery == 0 {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	var runs []float64
	var events int64
	var eventSecs float64
	for k, i := range idx {
		if s.host != nil && k%refEveryCheck == 0 {
			s.host.samples(1)
		}
		sc := jobScenario(s.cfg.seed, i)
		t, c0 := s.spans.begin("scenario.run", 0, ""), cpuSeconds()
		rep, err := sc.Run()
		runs = append(runs, cpuSeconds()-c0)
		t.end()
		var got []byte
		if err == nil {
			got, err = json.Marshal(rep)
		}
		if err == nil && !bytes.Equal(got, s.reports[i]) {
			err = fmt.Errorf("served report differs from Scenario.Run")
		}
		s.res.ops.op(errorf(err, "job %d check", i))
		if s.spans == nil {
			continue
		}
		root := s.spans.begin("simulation", 0, "")
		t = s.spans.begin("topology.build", root.ID(), "")
		topo, err := sc.Topology.Build()
		t.end()
		if err == nil {
			sc.Topo = topo
			t = s.spans.begin("session.new", root.ID(), "")
			var sess *dard.Session
			sess, err = dard.NewSession(sc)
			t.end()
			if err == nil {
				t = s.spans.begin("flowsim.run", root.ID(), "")
				_, err = sess.Run(context.Background())
				secs := t.end()
				if i < referenceJobs {
					events += sess.Events()
					eventSecs += secs
				}
			}
		}
		root.end()
		s.res.ops.op(errorf(err, "job %d session run", i))
	}
	if events > 0 {
		s.res.layer["flowsim.events"] = float64(events)
		s.res.layer["flowsim.us_per_event"] = eventSecs / float64(events) * 1e6
	}
	return runs
}

// reportOK checks a finished job's status.
func reportOK(st jobStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("state %s: %s", st.State, st.Error)
	}
	var rep struct{ Flows, Unfinished int }
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if rep.Unfinished != 0 {
		return fmt.Errorf("%d of %d flows unfinished", rep.Unfinished, rep.Flows)
	}
	return nil
}

// call makes one HTTP request and returns the body of a want-status
// answer.
func call(c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// stream reads an NDJSON event stream to its end and returns its size.
func stream(c *http.Client, url string) (int64, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return io.Copy(io.Discard, resp.Body)
}

// errorf prefixes a non-nil err with context.
func errorf(err error, format string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err)
}
