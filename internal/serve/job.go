package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dard"
	"dard/internal/parallel"
	"dard/internal/trace"
)

// Server is the daemon: an http.Handler over a table of jobs. See New.
type Server struct {
	opts Options
	gate *parallel.Limiter
	mux  *http.ServeMux
	// restoreLimit bounds a restore body: maxRestoreBytes, lowered only
	// by the tests.
	restoreLimit int64

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for stable listings
	seq      int
	draining bool // Shutdown in progress: pausing runners suspend instead of continuing

	wg sync.WaitGroup // one count per runner goroutine
}

// Job states as exposed over the API.
const (
	// StateQueued: admitted, waiting for a simulation slot.
	StateQueued = "queued"
	// StateRunning: the session is simulating (or paused for a
	// checkpoint it will immediately continue from).
	StateRunning = "running"
	// StateDone: completed; the status carries the final report.
	StateDone = "done"
	// StateFailed: the run errored; the status carries the message.
	StateFailed = "failed"
	// StateCanceled: stopped by DELETE before completing.
	StateCanceled = "canceled"
	// StateSuspended: checkpointed to the state dir by Shutdown; a
	// restarted server resumes it via LoadCheckpoints.
	StateSuspended = "suspended"
)

// job is one submitted run: the resumable session, its live event
// stream, and the runner goroutine's coordination state.
type job struct {
	id        string
	srv       *Server
	sess      *dard.Session
	stream    *trace.Streamer
	cancelCtx context.CancelFunc
	holdAt    int64 // submission's checkpoint_after boundary, 0 for none
	submitted time.Time

	mu      sync.Mutex
	state   string
	report  json.RawMessage
	errMsg  string
	ckpt    []byte           // latest checkpoint blob
	waiters []chan ckptReply // pending on-demand checkpoint requests
}

type ckptReply struct {
	blob []byte
	err  error
}

// jobStatus is the API view of a job.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Events counts trace events emitted so far — a cheap, monotonic
	// progress signal that survives checkpoint/restore.
	Events       int             `json:"events"`
	Checkpointed bool            `json:"checkpointed"`
	Submitted    time.Time       `json:"submitted"`
	Error        string          `json:"error,omitempty"`
	Report       json.RawMessage `json:"report,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:           j.id,
		State:        j.state,
		Events:       j.stream.Len(),
		Checkpointed: j.ckpt != nil,
		Submitted:    j.submitted,
		Error:        j.errMsg,
		Report:       j.report,
	}
}

// newJob validates a submission, builds its session, and starts the
// runner. The session is constructed before the job is published, so a
// rejected scenario never occupies an ID.
func (s *Server) newJob(req submitRequest) (*job, error) {
	sc := req.Scenario
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	stream := trace.NewStreamer()
	sc.Tracer = stream
	sc.TraceDir = ""
	sess, err := dard.NewSession(sc)
	if err != nil {
		return nil, err
	}
	return s.launch(sess, stream, req.CheckpointAfter, "")
}

// restoreJob rebuilds a job from a checkpoint blob. id, when non-empty,
// pins the restored job's identity (boot-time restore keeps the
// original ID); otherwise a fresh one is assigned.
func (s *Server) restoreJob(wire checkpointWire, id string) (*job, error) {
	if wire.Version != checkpointVersion {
		return nil, fmt.Errorf("serve: checkpoint version %d, this build reads %d", wire.Version, checkpointVersion)
	}
	if sum := eventsCRC(wire.Events); sum != wire.EventsCRC {
		return nil, fmt.Errorf("serve: checkpoint event history (%d events) sums to CRC %08x, recorded %08x", len(wire.Events), sum, wire.EventsCRC)
	}
	if len(wire.Session) == 0 {
		return nil, fmt.Errorf("serve: checkpoint carries no session")
	}
	if id != "" && wire.ID != "" && wire.ID != id {
		return nil, fmt.Errorf("serve: checkpoint records job %q but was loaded as %q (renamed checkpoint file?)", wire.ID, id)
	}
	stream := trace.NewStreamer()
	stream.Seed(wire.Events)
	sess, err := dard.ResumeSession(wire.Session, stream)
	if err != nil {
		return nil, err
	}
	return s.launch(sess, stream, 0, id)
}

// launch publishes the job and spawns its runner.
func (s *Server) launch(sess *dard.Session, stream *trace.Streamer, holdAt int64, id string) (*job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		srv:       s,
		sess:      sess,
		stream:    stream,
		cancelCtx: cancel,
		holdAt:    holdAt,
		submitted: time.Now().UTC(),
		state:     StateQueued,
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("serve: server is shutting down")
	}
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%d", s.seq)
	}
	if _, taken := s.jobs[id]; taken {
		s.mu.Unlock()
		cancel()
		return nil, fmt.Errorf("serve: job %q already exists", id)
	}
	j.id = id
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.wg.Add(1)
	s.mu.Unlock()
	go j.run(ctx)
	return j, nil
}

// cancel stops the job: queued jobs abort before starting, running ones
// stop at the engine's next cancellation check.
func (j *job) cancel() { j.cancelCtx() }

// lastCheckpoint returns the most recent checkpoint blob, nil if none.
func (j *job) lastCheckpoint() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt
}

// requestCheckpoint registers an on-demand checkpoint request and asks
// the run to pause. ok is false when the job is already terminal. The
// returned channel receives the blob (or error) once the runner reaches
// a boundary and serializes.
func (j *job) requestCheckpoint() (<-chan ckptReply, bool) {
	j.mu.Lock()
	if terminal(j.state) {
		j.mu.Unlock()
		return nil, false
	}
	reply := make(chan ckptReply, 1)
	j.waiters = append(j.waiters, reply)
	j.mu.Unlock()
	j.sess.RequestPause()
	return reply, true
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled || state == StateSuspended
}

// run is the job's goroutine: acquire a simulation slot, then drive the
// session, serving checkpoints at every pause, until it completes, is
// canceled, or the server drains.
func (j *job) run(ctx context.Context) {
	defer j.srv.wg.Done()
	if err := j.srv.gate.Acquire(ctx); err != nil {
		if j.srv.isDraining() {
			j.suspend()
		} else {
			j.finish(nil, fmt.Errorf("%w: %w", dard.ErrCanceled, err))
		}
		return
	}
	defer j.srv.gate.Release()
	if !j.tryStart() {
		// Only a drain stops a queued job from starting; Shutdown has
		// already snapshotted it, so just park.
		j.suspend()
		return
	}
	if j.holdAt > 0 {
		j.sess.PauseAfter(j.holdAt)
	}
	for {
		rep, err := j.sess.Run(ctx)
		switch {
		case err == nil:
			j.finish(rep, nil)
			return
		case errors.Is(err, dard.ErrPaused):
			j.checkpointNow()
			if j.srv.isDraining() {
				j.suspend()
				return
			}
		case errors.Is(err, dard.ErrCanceled) && j.srv.isDraining():
			// A drain raced with this job between boundaries; its state
			// is intact (cancellation is non-destructive), so suspend it
			// like every other live job rather than losing the work.
			j.checkpointNow()
			j.suspend()
			return
		default:
			j.finish(nil, err)
			return
		}
	}
}

// tryStart is the queued→running transition, made atomic with
// Shutdown's read-and-decide under the server mutex: either the drain
// sees the job queued (and snapshots its untouched session itself) and
// tryStart refuses, or the job is already running and the drain pauses
// it. Either way exactly one goroutine ever touches the session.
func (j *job) tryStart() bool {
	s := j.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	return true
}

// finish records the terminal state, answers any checkpoint waiters
// with a refusal, closes the stream, and retires the state-dir file —
// a completed job must not be resurrected by the next boot.
func (j *job) finish(rep *dard.Report, err error) {
	var reportJSON json.RawMessage
	if rep != nil {
		b, merr := json.Marshal(rep)
		if merr != nil {
			err, rep = merr, nil
		} else {
			reportJSON = b
		}
	}
	state := StateDone
	var msg string
	if err != nil {
		state = StateFailed
		if errors.Is(err, dard.ErrCanceled) {
			state = StateCanceled
		}
		msg = err.Error()
	}
	j.mu.Lock()
	j.state = state
	j.report = reportJSON
	j.errMsg = msg
	waiters := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, w := range waiters {
		w <- ckptReply{err: fmt.Errorf("serve: job %s is %s; nothing live to checkpoint", j.id, state)}
	}
	j.stream.Close()
	if j.srv.opts.StateDir != "" {
		os.Remove(j.ckptPath())
	}
}

// suspend marks the job parked by a drain. Its checkpoint is already on
// disk (checkpointNow ran first); the stream stays open because the
// run is not over — it continues in the next process.
func (j *job) suspend() {
	j.mu.Lock()
	j.state = StateSuspended
	waiters := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, w := range waiters {
		w <- ckptReply{err: fmt.Errorf("serve: job %s suspended by shutdown", j.id)}
	}
}

// checkpointNow serializes the paused session plus the stream history,
// persists the blob, and answers every pending waiter. Called by the
// runner only, at a pause boundary.
func (j *job) checkpointNow() {
	blob, err := j.snapshotWire()
	if err == nil && j.srv.opts.StateDir != "" {
		err = writeAtomic(j.ckptPath(), blob)
	}
	j.mu.Lock()
	if err == nil {
		j.ckpt = blob
	}
	waiters := j.waiters
	j.waiters = nil
	j.mu.Unlock()
	for _, w := range waiters {
		w <- ckptReply{blob: blob, err: err}
	}
}

func (j *job) snapshotWire() ([]byte, error) {
	sessBlob, err := j.sess.Snapshot()
	if err != nil {
		return nil, err
	}
	events := j.stream.Events()
	wire := checkpointWire{
		Version:   checkpointVersion,
		ID:        j.id,
		Session:   sessBlob,
		Events:    events,
		EventsCRC: eventsCRC(events),
	}
	bp, _ := ckptBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf, err := wire.appendJSON((*bp)[:0])
	blob := bytes.Clone(buf)
	*bp = buf[:0]
	ckptBufs.Put(bp)
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// ckptBufs recycles snapshotWire's encode buffers, so a checkpoint
// allocates its exact-size blob and no more, as json.Marshal's pooled
// encoder does.
var ckptBufs sync.Pool

// appendJSON appends the checkpoint exactly as json.Marshal writes it.
// The event history dominates a checkpoint, and trace.AppendEventStruct
// spells each event without reflection.
func (w *checkpointWire) appendJSON(dst []byte) ([]byte, error) {
	id, err := json.Marshal(w.ID) // escapes as json.Marshal does
	if err != nil {
		return nil, err
	}
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, int64(w.Version), 10)
	dst = append(dst, `,"id":`...)
	dst = append(dst, id...)
	dst = append(dst, `,"session":`...)
	if w.Session == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, w.Session)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"events":`...)
	if w.Events == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, e := range w.Events {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = trace.AppendEventStruct(dst, e); err != nil {
				return nil, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"events_crc":`...)
	dst = strconv.AppendUint(dst, uint64(w.EventsCRC), 10)
	return append(dst, '}'), nil
}

func (j *job) ckptPath() string {
	return filepath.Join(j.srv.opts.StateDir, j.id+".ckpt")
}

// checkpointVersion is the job checkpoint container version; the
// embedded session blob carries its own (dard.SessionSnapshotVersion).
// Version 2 added events_crc.
const checkpointVersion = 2

// checkpointWire is a job checkpoint: the session snapshot (scenario +
// engine state) plus the full trace history, so a restored job's stream
// replays identically from offset zero. The session blob carries its
// own CRC; EventsCRC guards the history.
//
//dardsnap:fields encoder=job.snapshotWire decoder=Server.restoreJob
type checkpointWire struct {
	Version   int           `json:"version"`
	ID        string        `json:"id"`
	Session   []byte        `json:"session"`
	Events    []trace.Event `json:"events"`
	EventsCRC uint32        `json:"events_crc"`
}

// eventsCRC is the CRC-32 (IEEE) of an event history: its length, then
// each event's fields in declaration order, little-endian, floats by
// their bits. It sums the values a restore replays, not their JSON
// spelling, and an empty history does not sum to zero, so a checkpoint
// stripped of both its events and its checksum is refused too.
func eventsCRC(events []trace.Event) uint32 {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 41), uint64(len(events)))
	sum := crc32.ChecksumIEEE(buf)
	for _, e := range events {
		buf = binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(e.T))
		buf = append(buf, byte(e.Kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Flow))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Link))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.A))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.B))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.V))
		sum = crc32.Update(sum, crc32.IEEETable, buf)
	}
	return sum
}

func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server for restart: new submissions are refused,
// every live job is paused, checkpointed to the state dir, and
// suspended, and the runners exit. Blocks until the drain completes or
// ctx expires. Terminal jobs are untouched. The HTTP listener is the
// caller's to close (http.Server.Shutdown); do that first so no
// submission races the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	type decision struct {
		j     *job
		state string
	}
	s.mu.Lock()
	s.draining = true
	live := make([]decision, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		live = append(live, decision{j, j.state})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	for _, d := range live {
		j := d.j
		switch d.state {
		case StateQueued:
			// Unblock the gate acquire; the runner sees draining and
			// suspends. An unstarted session still snapshots, so park
			// its state too.
			if s.opts.StateDir != "" {
				if blob, err := j.snapshotWire(); err == nil {
					writeAtomic(j.ckptPath(), blob)
				}
			}
			j.cancelCtx()
		case StateRunning:
			j.sess.RequestPause()
		}
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// LoadCheckpoints scans the state dir and resumes every job
// checkpointed there under its original ID, returning the IDs resumed.
// Call before serving. Unreadable or stale-format files are skipped and
// reported in errs — a bad checkpoint must not block the rest.
func (s *Server) LoadCheckpoints() (resumed []string, errs []error) {
	if s.opts.StateDir == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{err}
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		path := filepath.Join(s.opts.StateDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var wire checkpointWire
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		id := strings.TrimSuffix(name, ".ckpt")
		if _, err := s.restoreJob(wire, id); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		resumed = append(resumed, id)
	}
	// Future submissions must not collide with restored IDs.
	s.mu.Lock()
	for _, id := range resumed {
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
	}
	s.mu.Unlock()
	return resumed, errs
}
