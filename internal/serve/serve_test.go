package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dard"
	"dard/internal/metrics"
	"dard/internal/serve"
	"dard/internal/trace"
)

func testScenario(seed int64) dard.Scenario {
	return dard.Scenario{
		Topology:    dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:   dard.SchedulerECMP,
		Pattern:     dard.PatternStride,
		RatePerHost: 0.5,
		Duration:    3,
		FileSizeMB:  32,
		Seed:        seed,
	}
}

func steadyScenario(seed int64) dard.Scenario {
	s := testScenario(seed)
	s.Steady = true
	s.Duration = 6
	s.WindowSec = 0.5
	s.FileSizeMB = 64
	return s
}

// unboundedScenario streams arrivals indefinitely — the job cannot
// finish on its own, so tests that need a reliably-live run use it.
func unboundedScenario(seed int64) dard.Scenario {
	s := steadyScenario(seed)
	s.Duration = -1
	s.MaxTimeSec = 1e6
	return s
}

type status struct {
	ID           string          `json:"id"`
	State        string          `json:"state"`
	Events       int             `json:"events"`
	Checkpointed bool            `json:"checkpointed"`
	Error        string          `json:"error"`
	Report       json.RawMessage `json:"report"`
}

type harness struct {
	t    *testing.T
	srv  *serve.Server
	http *httptest.Server
}

func newHarness(t *testing.T, opts serve.Options) *harness {
	t.Helper()
	srv := serve.New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &harness{t: t, srv: srv, http: ts}
}

func (h *harness) do(method, path string, body any) (int, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.http.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.http.Client().Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// doRaw posts bytes verbatim — for feeding the API deliberately broken
// payloads that json.Marshal would refuse to produce.
func (h *harness) doRaw(method, path string, body []byte) (int, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.http.URL+path, bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.http.Client().Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (h *harness) submit(sc dard.Scenario, checkpointAfter int64) string {
	h.t.Helper()
	code, body := h.do("POST", "/jobs", map[string]any{
		"scenario": sc, "checkpoint_after": checkpointAfter,
	})
	if code != http.StatusCreated {
		h.t.Fatalf("submit: %d %s", code, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st.ID
}

func (h *harness) status(id string) status {
	h.t.Helper()
	code, body := h.do("GET", "/jobs/"+id, nil)
	if code != http.StatusOK {
		h.t.Fatalf("status %s: %d %s", id, code, body)
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

// await polls until the job satisfies pred or five seconds pass.
func (h *harness) await(id string, what string, pred func(status) bool) status {
	h.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := h.status(id)
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s never became %s; last state %q (%s)", id, what, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func isDone(st status) bool { return st.State == serve.StateDone }

// streamAll follows /events until the stream closes and returns the
// NDJSON lines.
func (h *harness) streamAll(id string) []string {
	h.t.Helper()
	resp, err := h.http.Client().Get(h.http.URL + "/jobs/" + id + "/events")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("events %s: %d", id, resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		h.t.Fatal(err)
	}
	return lines
}

// directLines runs the scenario in-process with a Streamer and renders
// the same NDJSON the server streams.
func directLines(t *testing.T, sc dard.Scenario) ([]string, []byte) {
	t.Helper()
	stream := trace.NewStreamer()
	sc.Tracer = stream
	rep, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, e := range stream.Events() {
		b, err := trace.AppendEventLine(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	repJSON, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return lines, repJSON
}

// TestConcurrentSessions is the serving acceptance gate: eight
// sessions in flight at once, each followed live by a streaming
// client, every report and event stream byte-identical to a direct
// single-threaded Scenario.Run.
func TestConcurrentSessions(t *testing.T) {
	h := newHarness(t, serve.Options{Workers: 4})
	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = h.submit(testScenario(int64(100+i)), 0)
	}
	streams := make([][]string, n)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams[i] = h.streamAll(id)
		}()
	}
	wg.Wait()
	for i, id := range ids {
		st := h.await(id, "done", isDone)
		wantLines, wantReport := directLines(t, testScenario(int64(100+i)))
		if !bytes.Equal(st.Report, wantReport) {
			t.Errorf("job %s report diverges from direct run", id)
		}
		if len(streams[i]) == 0 {
			t.Errorf("job %s streamed no events", id)
		}
		if got, want := strings.Join(streams[i], "\n"), strings.Join(wantLines, "\n"); got != want {
			t.Errorf("job %s stream diverges from direct run (%d vs %d lines)", id, len(streams[i]), len(wantLines))
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, serve.Options{})
	cases := []struct {
		name  string
		body  any
		field string
	}{
		{"unknown scheduler", map[string]any{"scenario": map[string]any{"Scheduler": "LRU"}}, "Scheduler"},
		{"negative rate", map[string]any{"scenario": map[string]any{"RatePerHost": -1}}, "RatePerHost"},
		{"packet engine", map[string]any{"scenario": map[string]any{"Engine": "packet"}}, ""},
		{"unknown field", map[string]any{"scenarioo": map[string]any{}}, ""},
		{"negative checkpoint_after", map[string]any{"scenario": map[string]any{}, "checkpoint_after": -1}, ""},
		// Each of these used to hold a worker slot forever: the run spun
		// at one simulated instant.
		{"query interval below the floor", map[string]any{"scenario": map[string]any{"DARD": map[string]any{"QueryInterval": 1e-300}}}, "DARD.QueryInterval"},
		{"schedule interval below the floor", map[string]any{"scenario": map[string]any{"DARD": map[string]any{"ScheduleInterval": 1e-300, "DisableJitter": true}}}, "DARD.ScheduleInterval"},
		{"pVLB interval below the floor", map[string]any{"scenario": map[string]any{"Scheduler": "pVLB", "VLBIntervalSec": 1e-300}}, "VLBIntervalSec"},
		{"probe interval below the floor", map[string]any{"scenario": map[string]any{"TraceProbeInterval": 1e-300}}, "TraceProbeInterval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := h.do("POST", "/jobs", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400 (%s)", code, body)
			}
			var reply struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(body, &reply); err != nil {
				t.Fatal(err)
			}
			if reply.Error == "" {
				t.Error("empty error message")
			}
			if reply.Field != tc.field {
				t.Errorf("field %q, want %q", reply.Field, tc.field)
			}
		})
	}
	if code, _ := h.do("GET", "/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", code)
	}
	if code, _ := h.do("GET", "/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz: %d", code)
	}
}

// TestSubmitBodyBounded pins the submission size bound: a body past a
// mebibyte is refused with 413 before it is decoded in full, while a
// valid submission padded with whitespace to just under the bound is
// accepted.
func TestSubmitBodyBounded(t *testing.T) {
	h := newHarness(t, serve.Options{})
	sc, err := json.Marshal(map[string]any{"scenario": testScenario(1)})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 1 << 20
	oversize := append(bytes.Repeat([]byte(" "), bound), sc...)
	code, body := h.doRaw("POST", "/jobs", oversize)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: code %d, want 413 (%s)", code, body)
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(reply.Error, "larger than") {
		t.Errorf("oversize body: error %q does not name the bound", reply.Error)
	}
	fits := append(bytes.Repeat([]byte(" "), bound-len(sc)), sc...)
	if code, body := h.doRaw("POST", "/jobs", fits); code != http.StatusCreated {
		t.Fatalf("body of exactly %d bytes: code %d, want 201 (%s)", len(fits), code, body)
	}
}

// TestCheckpointRestoreByteIdentical drives the full API round trip:
// a job checkpoints itself at a deterministic event boundary, the blob
// is fetched, a second job restores from it, and both finish with
// byte-identical reports and event streams — which also match a direct
// uninterrupted run.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	h := newHarness(t, serve.Options{})
	id := h.submit(testScenario(42), 30)
	h.await(id, "checkpointed", func(st status) bool { return st.Checkpointed })
	code, blob := h.do("GET", "/jobs/"+id+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("fetch checkpoint: %d %s", code, blob)
	}
	first := h.await(id, "done", isDone)

	code, body := h.do("POST", "/jobs/restore", json.RawMessage(blob))
	if code != http.StatusCreated {
		t.Fatalf("restore: %d %s", code, body)
	}
	var restored status
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	if restored.ID == id {
		t.Fatalf("restored job reused id %s", id)
	}
	second := h.await(restored.ID, "done", isDone)

	_, wantReport := directLines(t, testScenario(42))
	if !bytes.Equal(first.Report, wantReport) {
		t.Errorf("original job report diverges from direct run")
	}
	if !bytes.Equal(second.Report, wantReport) {
		t.Errorf("restored job report diverges from direct run")
	}
	a, b := h.streamAll(id), h.streamAll(restored.ID)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("restored stream diverges: %d vs %d lines", len(b), len(a))
	}
}

// TestOnDemandCheckpointAndCancel exercises the live-pause path on a
// job that never ends by itself, then the cancel path, then the
// terminal-state refusals.
func TestOnDemandCheckpointAndCancel(t *testing.T) {
	h := newHarness(t, serve.Options{})
	id := h.submit(unboundedScenario(7), 0)
	h.await(id, "running", func(st status) bool { return st.State == serve.StateRunning && st.Events > 0 })

	code, blob := h.do("POST", "/jobs/"+id+"/checkpoint", nil)
	if code != http.StatusOK {
		t.Fatalf("on-demand checkpoint: %d %s", code, blob)
	}
	var wire struct {
		Version int               `json:"version"`
		Session json.RawMessage   `json:"session"`
		Events  []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatalf("checkpoint blob is not JSON: %v", err)
	}
	if wire.Version != serve.CheckpointVersion || len(wire.Session) == 0 || len(wire.Events) == 0 {
		t.Fatalf("checkpoint blob incomplete: version %d, %d session bytes, %d events",
			wire.Version, len(wire.Session), len(wire.Events))
	}
	// The job keeps running after the snapshot.
	st := h.status(id)
	if st.State != serve.StateRunning {
		t.Fatalf("job %s after checkpoint: %s", id, st.State)
	}

	if code, _ := h.do("DELETE", "/jobs/"+id, nil); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	h.await(id, "canceled", func(st status) bool { return st.State == serve.StateCanceled })
	if code, body := h.do("POST", "/jobs/"+id+"/checkpoint", nil); code != http.StatusConflict {
		t.Errorf("checkpoint of canceled job: %d %s, want 409", code, body)
	}

	// The mid-run blob restores into a live job.
	code, body := h.do("POST", "/jobs/restore", json.RawMessage(blob))
	if code != http.StatusCreated {
		t.Fatalf("restore: %d %s", code, body)
	}
	var restored status
	if err := json.Unmarshal(body, &restored); err != nil {
		t.Fatal(err)
	}
	h.await(restored.ID, "running", func(st status) bool { return st.State == serve.StateRunning })
	h.do("DELETE", "/jobs/"+restored.ID, nil)
	h.await(restored.ID, "canceled", func(st status) bool { return st.State == serve.StateCanceled })
}

// TestMetricsDeterministic pins the live metrics endpoint: on a
// finished steady job its windows equal Report.Windows byte for byte,
// and a second identical submission reproduces them exactly.
func TestMetricsDeterministic(t *testing.T) {
	h := newHarness(t, serve.Options{})
	sc := steadyScenario(11)
	id := h.submit(sc, 0)
	st := h.await(id, "done", isDone)

	code, body := h.do("GET", "/jobs/"+id+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d %s", code, body)
	}
	var reply struct {
		WindowSec float64              `json:"window_sec"`
		Completed int                  `json:"completed"`
		Windows   []metrics.WindowStat `json:"windows"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Completed == 0 || len(reply.Windows) == 0 {
		t.Fatalf("no metrics: %+v", reply)
	}
	var rep dard.Report
	if err := json.Unmarshal(st.Report, &rep); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(reply.Windows)
	want, _ := json.Marshal(rep.Windows)
	if !bytes.Equal(got, want) {
		t.Errorf("live metrics diverge from Report.Windows:\n  live:   %s\n  report: %s", got, want)
	}

	id2 := h.submit(sc, 0)
	h.await(id2, "done", isDone)
	code, body2 := h.do("GET", "/jobs/"+id2+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics rerun: %d", code)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("metrics differ across identical submissions")
	}

	if code, _ := h.do("GET", "/jobs/"+id+"/metrics?window=oops", nil); code != http.StatusBadRequest {
		t.Errorf("bad window param accepted: %d", code)
	}
}

// TestShutdownSuspendsAndResumes drains a server with a running job
// and a queued one, then boots a fresh server on the same state dir
// and finds both jobs resumed — the queued job runs to its normal
// completion, byte-identical to a direct run.
func TestShutdownSuspendsAndResumes(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, serve.Options{Workers: 1, StateDir: dir})
	longID := h.submit(unboundedScenario(3), 0)
	h.await(longID, "running", func(st status) bool { return st.State == serve.StateRunning && st.Events > 0 })
	queuedID := h.submit(testScenario(5), 0)
	if st := h.status(queuedID); st.State != serve.StateQueued {
		t.Fatalf("second job on a 1-worker server: %s", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{longID, queuedID} {
		if st := h.status(id); st.State != serve.StateSuspended {
			t.Fatalf("job %s after shutdown: %s", id, st.State)
		}
	}
	if code, _ := h.do("POST", "/jobs", map[string]any{"scenario": testScenario(9)}); code != http.StatusBadRequest {
		t.Errorf("submission after shutdown: %d", code)
	}

	h2 := newHarness(t, serve.Options{Workers: 2, StateDir: dir})
	resumed, errs := h2.srv.LoadCheckpoints()
	if len(errs) != 0 {
		t.Fatalf("load errors: %v", errs)
	}
	if len(resumed) != 2 {
		t.Fatalf("resumed %v, want both jobs", resumed)
	}
	st := h2.await(queuedID, "done", isDone)
	_, wantReport := directLines(t, testScenario(5))
	if !bytes.Equal(st.Report, wantReport) {
		t.Errorf("resumed queued job's report diverges from direct run")
	}
	h2.await(longID, "running", func(st status) bool { return st.State == serve.StateRunning })
	h2.do("DELETE", "/jobs/"+longID, nil)
	h2.await(longID, "canceled", func(st status) bool { return st.State == serve.StateCanceled })

	// A completed job's checkpoint file is retired: a third boot only
	// sees what is still live.
	h3 := newHarness(t, serve.Options{StateDir: dir})
	resumed3, errs3 := h3.srv.LoadCheckpoints()
	if len(errs3) != 0 {
		t.Fatalf("third boot load errors: %v", errs3)
	}
	for _, id := range resumed3 {
		if id == queuedID {
			t.Errorf("completed job %s resurrected on reboot", queuedID)
		}
	}
}

// TestRestoreRejectsRenamedCheckpoint: the checkpoint blob records the
// job ID it belongs to, and boot-time restore refuses a file whose
// name disagrees — a renamed or copied .ckpt must not resume a job
// under a borrowed identity.
func TestRestoreRejectsRenamedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	h := newHarness(t, serve.Options{Workers: 1, StateDir: dir})
	id := h.submit(unboundedScenario(3), 0)
	h.await(id, "running", func(st status) bool { return st.State == serve.StateRunning && st.Events > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, id+".ckpt"), filepath.Join(dir, "job-9.ckpt")); err != nil {
		t.Fatal(err)
	}

	h2 := newHarness(t, serve.Options{StateDir: dir})
	resumed, errs := h2.srv.LoadCheckpoints()
	if len(resumed) != 0 {
		t.Fatalf("renamed checkpoint resumed as %v", resumed)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "renamed checkpoint file") {
		t.Fatalf("want one identity-mismatch error, got %v", errs)
	}
}

// editEvent changes the first event's "A" field in a checkpoint blob,
// keeping the JSON valid: the history a restore would replay differs
// in one integer.
func editEvent(t *testing.T, blob []byte) []byte {
	t.Helper()
	at := bytes.Index(blob, []byte(`"events":[`))
	loc := regexp.MustCompile(`"A":(-?[0-9]+)`).FindSubmatchIndex(blob[at:])
	if at < 0 || loc == nil {
		t.Fatalf("checkpoint has no event with an A field: %.200s", blob)
	}
	a, err := strconv.Atoi(string(blob[at+loc[2] : at+loc[3]]))
	if err != nil {
		t.Fatal(err)
	}
	out := append(bytes.Clone(blob[:at+loc[2]]), strconv.Itoa(a+60)...)
	return append(out, blob[at+loc[3]:]...)
}

// renameEvents renames a checkpoint's "events" key, which a lenient
// decoder would skip, restoring an empty history.
func renameEvents(blob []byte) []byte {
	return bytes.Replace(blob, []byte(`"events":`), []byte(`"evnets":`), 1)
}

// TestRestoreRejectsCorruption: a corrupted checkpoint answers 400,
// never a crash or a silently wrong job.
func TestRestoreRejectsCorruption(t *testing.T) {
	h := newHarness(t, serve.Options{})
	id := h.submit(testScenario(13), 30)
	h.await(id, "checkpointed", func(st status) bool { return st.Checkpointed })
	_, blob := h.do("GET", "/jobs/"+id+"/checkpoint", nil)

	version := []byte(`"version":` + strconv.Itoa(serve.CheckpointVersion))
	if !bytes.Contains(blob, version) {
		t.Fatalf("checkpoint does not record %s", version)
	}
	for name, breakIt := range map[string]func([]byte) []byte{
		"not json": func([]byte) []byte { return []byte("ceci n'est pas un checkpoint") },
		"version":  func(b []byte) []byte { return bytes.Replace(b, version, []byte(`"version":9`), 1) },
		"no session": func(b []byte) []byte {
			return regexp.MustCompile(`"session":"[^"]*"`).ReplaceAll(b, []byte(`"session":""`))
		},
		"unknown key": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"session":"`), []byte(`"x":1,"session":"`), 1)
		},
		"event edited":   func(b []byte) []byte { return editEvent(t, b) },
		"events renamed": renameEvents,
		"events stripped": func(b []byte) []byte {
			return regexp.MustCompile(`,"events":\[[^\]]*\],"events_crc":[0-9]+`).ReplaceAll(b, nil)
		},
		"bit flipped": func(b []byte) []byte {
			// Flip a base64 character deep inside the session payload.
			i := bytes.Index(b, []byte(`"session":"`)) + 200
			out := bytes.Clone(b)
			if out[i] == 'A' {
				out[i] = 'B'
			} else {
				out[i] = 'A'
			}
			return out
		},
	} {
		broken := breakIt(blob)
		if bytes.Equal(broken, blob) {
			t.Fatalf("%s: left the checkpoint unchanged", name)
		}
		code, body := h.doRaw("POST", "/jobs/restore", broken)
		if code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, code, body)
		}
	}
	if code, body := h.doRaw("POST", "/jobs/restore", blob); code != http.StatusCreated {
		t.Fatalf("unbroken checkpoint: %d %s, want 201", code, body)
	}
}

// TestRestoreRefusesForgedDrawCount: a checkpoint whose engine blob
// claims 2^62 RNG draws, its CRC recomputed so the frame check passes,
// is answered 400 at once instead of replaying the stream in the
// handler for ever; the same checkpoint re-encoded unedited restores.
func TestRestoreRefusesForgedDrawCount(t *testing.T) {
	h := newHarness(t, serve.Options{})
	id := h.submit(testScenario(13), 30)
	h.await(id, "checkpointed", func(st status) bool { return st.Checkpointed })
	_, blob := h.do("GET", "/jobs/"+id+"/checkpoint", nil)

	// withDraws re-encodes the checkpoint with the engine blob's draw
	// count (after the frame header, section mark, clock, timer
	// sequence and event count) set to draws, or unedited when negative.
	withDraws := func(draws int64) []byte {
		var wire, sess map[string]json.RawMessage
		var session, engine []byte
		must := func(err error) {
			if err != nil {
				t.Helper()
				t.Fatal(err)
			}
		}
		must(json.Unmarshal(blob, &wire))
		must(json.Unmarshal(wire["session"], &session))
		must(json.Unmarshal(session, &sess))
		must(json.Unmarshal(sess["engine"], &engine))
		if draws >= 0 {
			binary.LittleEndian.PutUint64(engine[6+1+3*8:], uint64(draws))
			n := len(engine) - 4
			binary.LittleEndian.PutUint32(engine[n:], crc32.ChecksumIEEE(engine[:n]))
		}
		var err error
		sess["engine"], err = json.Marshal(engine)
		must(err)
		session, err = json.Marshal(sess)
		must(err)
		wire["session"], err = json.Marshal(session)
		must(err)
		out, err := json.Marshal(wire)
		must(err)
		return out
	}
	code, body := h.doRaw("POST", "/jobs/restore", withDraws(1<<62))
	if code != http.StatusBadRequest || !bytes.Contains(body, []byte("draw count")) {
		t.Errorf("forged draw count: %d %s, want 400 naming the draw count", code, body)
	}
	if code, body := h.doRaw("POST", "/jobs/restore", withDraws(-1)); code != http.StatusCreated {
		t.Fatalf("re-encoded checkpoint: %d %s, want 201", code, body)
	}
}

// TestLoadCheckpointsRejectsEditedHistory: boot-time restore refuses a
// checkpoint file whose event history was edited or whose events key
// was renamed, as POST /jobs/restore does, and still resumes the good
// file beside them.
func TestLoadCheckpointsRejectsEditedHistory(t *testing.T) {
	h := newHarness(t, serve.Options{})
	id := h.submit(testScenario(13), 30)
	h.await(id, "checkpointed", func(st status) bool { return st.Checkpointed })
	_, blob := h.do("GET", "/jobs/"+id+"/checkpoint", nil)
	var wire struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	files := map[string][]byte{
		wire.ID:   blob,
		"job-101": editEvent(t, blob),
		"job-102": renameEvents(blob),
	}
	for name, data := range files {
		if name != wire.ID {
			// The blob records its own ID; point it at the file name so
			// only the history differs.
			data = bytes.Replace(data, []byte(`"id":"`+wire.ID+`"`), []byte(`"id":"`+name+`"`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".ckpt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h2 := newHarness(t, serve.Options{StateDir: dir})
	resumed, errs := h2.srv.LoadCheckpoints()
	if len(resumed) != 1 || resumed[0] != wire.ID {
		t.Errorf("resumed %v, want only the unedited %s", resumed, wire.ID)
	}
	if len(errs) != 2 {
		t.Fatalf("want two refusals, got %v", errs)
	}
	for _, err := range errs {
		msg := err.Error()
		switch {
		case strings.HasPrefix(msg, "job-101.ckpt") && strings.Contains(msg, "CRC"):
		case strings.HasPrefix(msg, "job-102.ckpt") && strings.Contains(msg, "unknown field"):
		default:
			t.Errorf("unexpected refusal: %v", err)
		}
	}
}

// TestRestoreBodyBounded pins the restore size bound: the daemon serves
// with a 64 MiB bound, and at a bound lowered to a real checkpoint's
// size that checkpoint restores while the same checkpoint one byte of
// leading whitespace longer is refused with 413 naming the bound.
func TestRestoreBodyBounded(t *testing.T) {
	if serve.MaxRestoreBytes != 64<<20 {
		t.Errorf("restore bound is %d bytes, want the documented 64 MiB", serve.MaxRestoreBytes)
	}
	h := newHarness(t, serve.Options{})
	id := h.submit(testScenario(5), 30)
	h.await(id, "checkpointed", func(st status) bool { return st.Checkpointed })
	_, blob := h.do("GET", "/jobs/"+id+"/checkpoint", nil)
	h.srv.SetRestoreLimit(int64(len(blob)))

	code, body := h.doRaw("POST", "/jobs/restore", append([]byte(" "), blob...))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("checkpoint past the bound: code %d, want 413 (%s)", code, body)
	}
	var reply struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(len(blob)); !strings.Contains(reply.Error, "larger than "+want) {
		t.Errorf("checkpoint past the bound: error %q does not name the %s-byte bound", reply.Error, want)
	}
	if code, body := h.doRaw("POST", "/jobs/restore", blob); code != http.StatusCreated {
		t.Fatalf("checkpoint of exactly the bound: code %d, want 201 (%s)", code, body)
	}
}

// FuzzRestoreCheckpoint feeds POST /jobs/restore arbitrary bodies,
// seeded with a real checkpoint and broken ones. Each must be refused
// with a JSON error (400 or 413), or restore a job, never panic: the
// handler runs on the fuzzer's goroutine, so a panic fails the target.
// A restored job is canceled at once.
func FuzzRestoreCheckpoint(f *testing.F) {
	srv := serve.New(serve.Options{Workers: 1})
	srv.SetRestoreLimit(1 << 20) // bodies past a mebibyte only test the bound
	serveReq := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	sub, err := json.Marshal(map[string]any{"scenario": testScenario(3), "checkpoint_after": 20})
	if err != nil {
		f.Fatal(err)
	}
	rec := serveReq("POST", "/jobs", sub)
	var st status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusCreated {
		f.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var blob []byte
	for deadline := time.Now().Add(5 * time.Second); blob == nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			f.Fatal("job never checkpointed")
		}
		if rec := serveReq("GET", "/jobs/"+st.ID+"/checkpoint", nil); rec.Code == http.StatusOK {
			blob = rec.Body.Bytes()
		}
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"version":2,"id":"job-1","session":"","events":[]}`))
	f.Add([]byte(`{"version":2,"session":"AAAA","events":[{}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serveReq("POST", "/jobs/restore", body)
		switch rec.Code {
		case http.StatusCreated:
			var st status
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("restore answered 201 with %q: %v", rec.Body, err)
			}
			serveReq("DELETE", "/jobs/"+st.ID, nil)
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var reply struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Error == "" {
				t.Fatalf("restore answered %d without a JSON error: %q", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("restore answered %d: %q", rec.Code, rec.Body)
		}
	})
}
