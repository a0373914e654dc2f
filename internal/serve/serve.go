// Package serve is the HTTP/JSON serving layer over the dard facade: a
// daemon that accepts Scenario submissions, runs many sessions
// concurrently under an admission limit, streams each run's trace
// events to any number of clients as NDJSON while the simulation is in
// flight, and checkpoints jobs — on demand, at a submitted event
// boundary, or on shutdown — into self-contained blobs that restore
// bit-identically, in this process or the next one.
//
// The simulations themselves stay deterministic: a job's report and
// event stream are byte-identical to Scenario.Run's, whatever the
// server's concurrency, client count, or checkpoint schedule. The
// serving layer is the one place wall-clock time is allowed (dardlint
// scopes the ban to simulation packages), and it only ever reaches
// metadata — submission timestamps, HTTP deadlines — never the runs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dard"
	"dard/internal/metrics"
	"dard/internal/parallel"
	"dard/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Workers bounds how many sessions simulate at once (<= 0: one per
	// CPU). Submissions past the limit queue and start as slots free.
	Workers int
	// StateDir, when non-empty, persists every checkpoint as
	// <StateDir>/<job-id>.ckpt: written on demand, at a submission's
	// requested boundary, and for all live jobs on Shutdown; removed
	// when the job completes. LoadCheckpoints resumes them on boot.
	StateDir string
}

// New builds a Server. Call http.ListenAndServe (or httptest) with it;
// it implements http.Handler. On a server with a state dir, call
// LoadCheckpoints before serving to resume interrupted jobs.
func New(opts Options) *Server {
	s := &Server{
		opts:         opts,
		gate:         parallel.NewLimiter(opts.Workers),
		restoreLimit: maxRestoreBytes,
		jobs:         make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("POST /jobs/restore", s.handleRestore)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("POST /jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /jobs/{id}/checkpoint", s.handleLastCheckpoint)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// submitRequest is the POST /jobs body.
type submitRequest struct {
	// Scenario is the run to execute, exactly as dard.Scenario
	// marshals. The serving layer runs flow-engine sessions only — the
	// packet kernel cannot pause or snapshot — so packet-engine
	// submissions are rejected up front.
	Scenario dard.Scenario `json:"scenario"`
	// CheckpointAfter, when positive, pauses the run once this many
	// engine events have dispatched, writes a checkpoint at that exact
	// boundary, and continues. Unlike the on-demand endpoint, the
	// boundary is deterministic: the same submission checkpoints at the
	// same event every time.
	CheckpointAfter int64 `json:"checkpoint_after,omitempty"`
}

// errorReply is every non-2xx JSON body.
type errorReply struct {
	Error string `json:"error"`
	// Field names the offending Scenario field for validation failures.
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	reply := errorReply{Error: err.Error()}
	var ve *dard.ValidationError
	if errors.As(err, &ve) {
		reply.Field = ve.Field
	}
	writeJSON(w, code, reply)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// maxSubmitBytes bounds a POST /jobs body. A submission is one Scenario,
// about a kilobyte of JSON, so a mebibyte leaves room for any real one
// while a hostile body cannot make the decoder buffer without limit.
const maxSubmitBytes = 1 << 20

// maxRestoreBytes bounds a POST /jobs/restore body. A checkpoint carries
// the session snapshot and the job's whole event history, so it grows
// with the topology and the run. Near the end of its run, a DARD job on
// the largest fat-tree the families build (p=128, one host per ToR,
// staggered, 0.25 flows/s/host for 1 s, 64 MB) checkpoints to 14.3 MB
// and the p=32 perfbench flow-dard scenario to 2.5 MB; 64 MiB leaves a
// margin of 4.5x over the first. Scenario.Validate bounds shape, not
// cost, so a longer or denser job can checkpoint past the bound; its
// restore is refused with 413 naming it.
const maxRestoreBytes = 64 << 20

// decodeBody decodes r's JSON body into v, reading at most limit bytes
// and rejecting unknown fields, so a misspelled or renamed key is an
// error rather than a zero value. On failure it writes the error reply,
// 413 naming the bound for a body past it and 400 for any other, and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: %s larger than %d bytes: %w", what, limit, err))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad %s: %w", what, err))
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !decodeBody(w, r, maxSubmitBytes, "submission", &req) {
		return
	}
	if req.CheckpointAfter < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: checkpoint_after %d must be non-negative", req.CheckpointAfter))
		return
	}
	j, err := s.newJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.status())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var wire checkpointWire
	if !decodeBody(w, r, s.restoreLimit, "checkpoint", &wire) {
		return
	}
	j, err := s.restoreJob(wire, "")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string][]jobStatus{"jobs": statuses})
}

// lookup resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no job %q", id))
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleEvents streams the job's trace as NDJSON, one event per line in
// emission order, starting at ?from=N (default 0). The response follows
// the run live — lines appear as the simulation emits them — and ends
// when the job reaches a terminal state. Because the stream's history
// survives checkpoints, a client can reconnect to a restored job with
// the offset it left off at and see exactly the lines an uninterrupted
// run would have produced.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad from offset %q", q))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	// buf collects the batch's lines and goes out in writes of about
	// streamChunk bytes, so a long replay never holds its whole NDJSON
	// form at once.
	buf := make([]byte, 0, streamChunk+512)
	for {
		batch, next, closed := j.stream.Wait(from, r.Context().Done())
		for _, e := range batch {
			var err error
			if buf, err = trace.AppendEventLine(buf, e); err != nil {
				return
			}
			buf = append(buf, '\n')
			if len(buf) >= streamChunk {
				if _, err := w.Write(buf); err != nil {
					return
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return
			}
			buf = buf[:0]
		}
		if canFlush && len(batch) > 0 {
			flusher.Flush()
		}
		from = next
		if closed || r.Context().Err() != nil {
			return
		}
	}
}

// streamChunk is about the size of handleEvents' writes. It is larger
// than net/http's 2 KiB response buffer, so a chunk goes to the
// connection without being copied through that buffer first.
const streamChunk = 4 << 10

// metricsReply is the GET /jobs/{id}/metrics body.
type metricsReply struct {
	WindowSec float64              `json:"window_sec"`
	Completed int                  `json:"completed"`
	Windows   []metrics.WindowStat `json:"windows"`
}

// handleMetrics computes windowed throughput/fairness over the
// transfers completed so far, straight from the trace stream — valid
// mid-run, after restore, and on finished jobs alike. The computation
// is the same pure fold the final Report uses (metrics.ComputeWindows
// over completions in (finish time, flow ID) order), so on a finished
// steady job the reply's windows equal Report.Windows byte for byte.
// ?window=W overrides the scenario's width.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	width := j.sess.Scenario().WindowSec
	if q := r.URL.Query().Get("window"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad window width %q", q))
			return
		}
		width = v
	}
	if width <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: job %s has no window width; pass ?window=", j.id))
		return
	}
	samples := windowSamples(j.stream.Events())
	windows, err := metrics.ComputeWindows(width, samples)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, metricsReply{WindowSec: width, Completed: len(samples), Windows: windows})
}

// windowSamples pairs FlowStart/FlowEnd events into completed-transfer
// samples. FlowEnd events are emitted in completion-dispatch order —
// (finish time, flow ID) — which is exactly the sample order
// ComputeWindows requires and the final Report accumulates in.
func windowSamples(events []trace.Event) []metrics.WindowSample {
	started := make(map[int32]float64)
	var out []metrics.WindowSample
	for _, e := range events {
		switch e.Kind {
		case trace.KindFlowStart:
			started[e.Flow] = e.T
		case trace.KindFlowEnd:
			at, ok := started[e.Flow]
			if !ok {
				continue
			}
			out = append(out, metrics.WindowSample{Finish: e.T, Bits: e.V, Rate: e.V / (e.T - at)})
		}
	}
	return out
}

// handleCheckpoint snapshots a live job: it asks the run to pause at
// its next event boundary, waits for the runner to serialize the
// session and stream history, and returns the blob — which is also
// persisted to the state dir, and which POST /jobs/restore (or a later
// boot) accepts verbatim. The run continues immediately after the
// snapshot. Finished, failed, and canceled jobs answer 409: there is no
// live state left to checkpoint.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	reply, ok := j.requestCheckpoint()
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s is %s; nothing live to checkpoint", j.id, j.status().State))
		return
	}
	select {
	case rep := <-reply:
		if rep.err != nil {
			writeError(w, http.StatusInternalServerError, rep.err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(rep.blob)
	case <-r.Context().Done():
	}
}

// handleLastCheckpoint returns the job's most recent checkpoint blob —
// written by the on-demand endpoint, a submission's checkpoint_after
// boundary, or a shutdown — without pausing anything. 404 until one
// exists.
func (s *Server) handleLastCheckpoint(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	blob := j.lastCheckpoint()
	if blob == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: job %s has no checkpoint yet", j.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(blob)
}
