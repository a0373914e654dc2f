package trace

import "sync"

// Streamer is a Tracer that retains every emitted event and lets any
// number of subscribers replay and follow the stream concurrently. It
// backs the serving layer's live NDJSON endpoints: the simulation
// goroutine emits, HTTP handlers follow.
//
// Emit never blocks (the Tracer contract): appending takes the mutex
// briefly and wakes followers by closing a broadcast channel. Slow
// subscribers never apply backpressure to the simulation — they just
// read further behind. Events are retained for the Streamer's lifetime
// so a late subscriber can replay from any offset; a checkpoint carries
// the retained events (Events) and a restored job reseeds them (Seed),
// making the stream a subscriber sees identical across a
// checkpoint/restore cycle.
//
// Probe samples are not streamed: Sample is a no-op, so run sessions
// that want series data attach a Recorder instead.
type Streamer struct {
	mu     sync.Mutex
	events []Event
	closed bool
	wake   chan struct{}
}

var _ Tracer = (*Streamer)(nil)

// NewStreamer returns an empty open stream.
func NewStreamer() *Streamer {
	return &Streamer{wake: make(chan struct{})}
}

// Enabled implements Tracer.
func (st *Streamer) Enabled() bool { return true }

// Emit implements Tracer.
func (st *Streamer) Emit(e Event) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		panic("trace: Emit after Close")
	}
	st.events = append(st.events, e)
	st.broadcastLocked()
	st.mu.Unlock()
}

// Sample implements Tracer; series are not streamed.
func (st *Streamer) Sample(Metric, int64, float64, float64) {}

// Close marks the stream complete: followers drain the remaining events
// and stop. Emitting after Close is a programming error and panics.
func (st *Streamer) Close() {
	st.mu.Lock()
	st.closed = true
	st.broadcastLocked()
	st.mu.Unlock()
}

func (st *Streamer) broadcastLocked() {
	close(st.wake)
	st.wake = make(chan struct{})
}

// Len returns the number of events emitted so far.
func (st *Streamer) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.events)
}

// Events returns a copy of every retained event; with the stream closed
// (or the emitter paused) this is the checkpoint payload.
func (st *Streamer) Events() []Event {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Event, len(st.events))
	copy(out, st.events)
	return out
}

// Seed replaces the retained events, rebuilding a restored job's stream
// history. Only valid before any Emit.
func (st *Streamer) Seed(events []Event) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.events) != 0 {
		panic("trace: Seed after Emit")
	}
	st.events = append(st.events, events...)
	st.broadcastLocked()
}

// Wait returns the events at and after offset from, blocking until at
// least one is available, the stream closes, or done fires. next is the
// offset to pass on the following call; closed reports that no further
// events will ever arrive (the returned batch, possibly empty, is the
// rest of the stream). A fired done returns an empty batch with
// closed=false — the caller distinguishes its own cancellation.
//
// The batch is not a copy: it shares the retained history, capped at
// next so an append through it cannot reach the stream's own slots.
// Sharing is safe because an element below the history's length is
// never written again — Emit only appends, and Seed runs before any
// Emit — so a follower may read its batch while the simulation keeps
// emitting. Callers must treat the batch as read-only.
func (st *Streamer) Wait(from int, done <-chan struct{}) (batch []Event, next int, closed bool) {
	if from < 0 {
		from = 0
	}
	for {
		st.mu.Lock()
		if n := len(st.events); n > from {
			batch, next, closed = st.events[from:n:n], n, st.closed
			st.mu.Unlock()
			return batch, next, closed
		}
		if st.closed {
			st.mu.Unlock()
			return nil, from, true
		}
		wake := st.wake
		st.mu.Unlock()
		select {
		case <-wake:
		case <-done:
			return nil, from, false
		}
	}
}
