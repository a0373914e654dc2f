package tcp

import (
	"math/rand"
	"testing"

	"dard/internal/simnet"
)

// receiver is a Conn whose receiver half is fed data segments directly.
func receiver(t *testing.T) *Conn {
	t.Helper()
	r := newRig(t, 0)
	c, err := NewConn(r.n, 1, r.route(0, 8, 0), 8*(64<<20), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *Conn) deliverSeg(seq int) {
	c.onData(&simnet.Packet{FlowID: c.id, Seq: seq, Route: c.route})
}

// TestReceiverReordering walks the receiver through out-of-order
// arrivals, duplicates of held and of acknowledged segments, a segment
// far enough ahead to grow the window, and the gaps closing.
func TestReceiverReordering(t *testing.T) {
	c := receiver(t)
	steps := []struct {
		seq, want int
	}{
		{0, 1},
		{3, 1}, {5, 1}, // held out of order
		{3, 1}, // duplicate of a held segment
		{0, 1}, // duplicate of an acknowledged one
		{1, 2},
		{2, 4},                    // uncovers 3
		{4, 6},                    // uncovers 5
		{6 + 64*minSegWords*4, 6}, // past the ring's first span
		{7, 6},
		{6, 8},
	}
	for i, s := range steps {
		c.deliverSeg(s.seq)
		if c.rcvNext != s.want {
			t.Fatalf("step %d: segment %d left rcvNext at %d, want %d", i, s.seq, c.rcvNext, s.want)
		}
	}
	far := steps[8].seq
	for seq := 8; seq < far; seq++ {
		c.deliverSeg(seq)
	}
	if c.rcvNext != far+1 {
		t.Fatalf("closing the gap left rcvNext at %d, want %d", c.rcvNext, far+1)
	}
	for _, w := range c.ooo.words {
		if w != 0 {
			t.Fatalf("window holds marks below rcvNext: %x", c.ooo.words)
		}
	}
}

// TestReceiverMatchesSetModel feeds random arrival orders with
// duplicates to the receiver and to a map-based model of the held set,
// and requires the same cumulative pointer after every segment.
func TestReceiverMatchesSetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		c := receiver(t)
		n := 1 + rng.Intn(600)
		order := rng.Perm(n)
		for i := 0; i < n/4; i++ { // duplicates anywhere in the stream
			order = append(order, rng.Intn(n))
		}
		// Reordering is local in a real transfer; shuffle only within
		// windows of a random reach so the held set stays bounded.
		reach := 1 + rng.Intn(300)
		for i := range order {
			j := i + rng.Intn(reach)
			if j < len(order) {
				order[i], order[j] = order[j], order[i]
			}
		}
		held, next := map[int]bool{}, 0
		for k, seq := range order {
			switch {
			case seq == next:
				next++
				for held[next] {
					delete(held, next)
					next++
				}
			case seq > next:
				held[seq] = true
			}
			c.deliverSeg(seq)
			if c.rcvNext != next {
				t.Fatalf("trial %d, arrival %d (segment %d): rcvNext %d, model %d", trial, k, seq, c.rcvNext, next)
			}
		}
	}
}
