package evq

import (
	"math"
	"testing"
)

// FuzzLanes drives Lanes the way the packet kernel does — every push is
// at now+d, with now advanced to each popped time — and checks it
// against a Queue holding the same entries: every pop returns the
// heap's pop, Min and Len agree after every step, and the lanes in use
// are exactly the distinct offsets with entries pending, so an emptied
// lane is recycled.
//
// Offsets come from a small set of dyadic values, which makes entries
// pushed at different times with different offsets tie on At and fall
// back to Seq, and from arbitrary non-negative doubles built from the
// input bytes.
func FuzzLanes(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 2, 0, 0, 3, 2, 2, 2})
	f.Add([]byte{0, 4, 2, 0, 0, 2, 0, 4, 2, 0, 2, 2, 0, 1, 2})
	f.Add([]byte{1, 7, 9, 0, 1, 2, 1, 7, 9, 2, 0, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 2, 0, 3, 0, 3, 2, 2, 2})
	small := []float64{0, 0.25, 0.5, 0.75, 1, 1.25}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var l Lanes[int64]
		var q Queue[int64]
		pending := map[uint64]int{}  // offset bits -> queued entries
		offset := map[int64]uint64{} // seq -> offset bits
		var now float64
		var seq int64
		for k := 0; k < len(ops); k++ {
			switch ops[k] % 3 {
			case 0, 1:
				var d float64
				if ops[k]%3 == 0 {
					if k+1 >= len(ops) {
						return
					}
					d = small[int(ops[k+1])%len(small)]
					k++
				} else {
					if k+2 >= len(ops) {
						return
					}
					d = float64(uint16(ops[k+1])<<8|uint16(ops[k+2])) / 977
					k += 2
				}
				seq++
				l.Push(now, d, seq, seq)
				q.Push(now+d, seq, seq)
				bits := math.Float64bits(d)
				pending[bits]++
				offset[seq] = bits
			case 2:
				if q.Len() == 0 {
					continue
				}
				got, want := l.Pop(), q.Pop()
				if got.At != want.At || got.Seq != want.Seq || got.Val != want.Val {
					t.Fatalf("Pop = (%g, %d, %d), want (%g, %d, %d)",
						got.At, got.Seq, got.Val, want.At, want.Seq, want.Val)
				}
				now = got.At
				bits := offset[got.Seq]
				delete(offset, got.Seq)
				if pending[bits]--; pending[bits] == 0 {
					delete(pending, bits)
				}
			}
			if l.Len() != q.Len() {
				t.Fatalf("Len = %d, want %d", l.Len(), q.Len())
			}
			if q.Len() > 0 {
				if m, w := l.Min(), q.Min(); m.At != w.At || m.Seq != w.Seq {
					t.Fatalf("Min = (%g, %d), want (%g, %d)", m.At, m.Seq, w.At, w.Seq)
				}
			}
			if len(l.lanes) != len(pending) {
				t.Fatalf("%d lanes in use for %d distinct pending offsets", len(l.lanes), len(pending))
			}
		}
		for q.Len() > 0 {
			got, want := l.Pop(), q.Pop()
			if got.At != want.At || got.Seq != want.Seq {
				t.Fatalf("drain popped (%g, %d), want (%g, %d)", got.At, got.Seq, want.At, want.Seq)
			}
		}
		if l.Len() != 0 || len(l.lanes) != 0 {
			t.Fatalf("after drain: Len = %d, %d lanes", l.Len(), len(l.lanes))
		}
	})
}

// TestLanesTieAcrossOffsets pins the case the merge exists for: entries
// in different lanes due at the same time pop in Seq order.
func TestLanesTieAcrossOffsets(t *testing.T) {
	var l Lanes[string]
	l.Push(0, 1, 1, "a") // due 1
	l.Push(0, 0.5, 2, "b")
	if it := l.Pop(); it.Val != "b" || it.At != 0.5 {
		t.Fatalf("first pop %+v, want b at 0.5", it)
	}
	l.Push(0.5, 0.5, 3, "c") // due 1, after a
	l.Push(0.5, 0, 4, "d")   // due 0.5
	var got []string
	for l.Len() > 0 {
		got = append(got, l.Pop().Val)
	}
	if len(got) != 3 || got[0] != "d" || got[1] != "a" || got[2] != "c" {
		t.Fatalf("popped %v, want [d a c]", got)
	}
	if len(l.lanes) != 0 || len(l.spare) != 3 {
		t.Fatalf("%d lanes and %d spares after drain, want 0 and 3", len(l.lanes), len(l.spare))
	}
}

// TestLanesPushOutOfOrder checks that a push that would break its lane's
// order — the clock went back — panics instead of misordering.
func TestLanesPushOutOfOrder(t *testing.T) {
	var l Lanes[int]
	l.Push(1, 0.5, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("push behind its lane's tail did not panic")
		}
	}()
	l.Push(0.5, 0.5, 2, 0)
}
