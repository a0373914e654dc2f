package trace

import (
	"bytes"
	"sync"
	"testing"
)

func TestStreamerReplayAndFollow(t *testing.T) {
	st := NewStreamer()
	for i := 0; i < 5; i++ {
		st.Emit(Event{T: float64(i), Kind: KindFlowStart, Flow: int32(i), Link: -1})
	}

	// A late subscriber replays from 0 without blocking.
	batch, next, closed := st.Wait(0, nil)
	if len(batch) != 5 || next != 5 || closed {
		t.Fatalf("replay got %d events, next %d, closed %v", len(batch), next, closed)
	}
	for i, e := range batch {
		if e.Flow != int32(i) {
			t.Fatalf("event %d has flow %d", i, e.Flow)
		}
	}

	// A follower blocks until the next emission arrives.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch, next, closed := st.Wait(5, nil)
		if len(batch) != 1 || batch[0].Flow != 99 || next != 6 || closed {
			t.Errorf("follow got %d events, next %d, closed %v", len(batch), next, closed)
		}
	}()
	st.Emit(Event{T: 9, Kind: KindFlowEnd, Flow: 99, Link: -1})
	wg.Wait()

	// Close drains followers with closed=true.
	st.Close()
	if batch, next, closed := st.Wait(6, nil); len(batch) != 0 || next != 6 || !closed {
		t.Fatalf("after close got %d events, next %d, closed %v", len(batch), next, closed)
	}
}

func TestStreamerWaitHonorsDone(t *testing.T) {
	st := NewStreamer()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch, next, closed := st.Wait(0, done)
		if len(batch) != 0 || next != 0 || closed {
			t.Errorf("canceled wait got %d events, next %d, closed %v", len(batch), next, closed)
		}
	}()
	close(done)
	wg.Wait()
}

func TestStreamerSeedRebuildsHistory(t *testing.T) {
	st := NewStreamer()
	st.Emit(Event{T: 1, Kind: KindFlowStart, Flow: 0, Link: -1})
	st.Emit(Event{T: 2, Kind: KindFlowEnd, Flow: 0, Link: -1})
	history := st.Events()

	restored := NewStreamer()
	restored.Seed(history)
	batch, next, _ := restored.Wait(0, nil)
	if len(batch) != 2 || next != 2 {
		t.Fatalf("seeded stream replays %d events", len(batch))
	}
	for i := range history {
		if batch[i] != history[i] {
			t.Fatalf("seeded event %d = %+v, want %+v", i, batch[i], history[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Seed after Emit did not panic")
		}
	}()
	restored.Seed(history)
}

func TestAppendEventLineMatchesJSONL(t *testing.T) {
	ev := Event{T: 1.5, Kind: KindPathSwitch, Flow: 3, Link: -1, A: 0, B: 2, V: 0}
	line, err := AppendEventLine(nil, ev)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, &Trace{Events: []Event{ev}}); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("JSONL export has %d lines, want meta + event", len(lines))
	}
	if !bytes.Equal(line, lines[1]) {
		t.Fatalf("AppendEventLine = %s, WriteJSONL emits %s", line, lines[1])
	}
}

// TestStreamerFollowersSeeFullStream runs one emitting goroutine against
// several followers on one Streamer. Every follower must see the whole
// stream in order, although its batches share the history the emitter
// keeps appending to; under -race this also pins that sharing.
func TestStreamerFollowersSeeFullStream(t *testing.T) {
	const events, followers = 5000, 4
	st := NewStreamer()
	var wg sync.WaitGroup
	for f := 0; f < followers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen, from := 0, 0
			for {
				batch, next, closed := st.Wait(from, nil)
				if next != from+len(batch) {
					t.Errorf("batch of %d from %d ends at %d", len(batch), from, next)
					return
				}
				for _, e := range batch {
					if e.Flow != int32(seen) || e.T != float64(seen) {
						t.Errorf("event %d carries flow %d at t=%g", seen, e.Flow, e.T)
						return
					}
					seen++
				}
				from = next
				if closed {
					break
				}
			}
			if seen != events {
				t.Errorf("follower saw %d of %d events", seen, events)
			}
		}()
	}
	for i := 0; i < events; i++ {
		st.Emit(Event{T: float64(i), Kind: KindFlowStart, Flow: int32(i), Link: -1})
	}
	st.Close()
	wg.Wait()
}

// TestStreamerEmitAfterClosePanics: a closed stream's followers have
// already been told it is complete, so a late Emit must not slip in.
func TestStreamerEmitAfterClosePanics(t *testing.T) {
	st := NewStreamer()
	st.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Emit after Close did not panic")
		}
		if st.Len() != 0 {
			t.Fatalf("the late event was retained: %d events", st.Len())
		}
	}()
	st.Emit(Event{Kind: KindFlowStart})
}
