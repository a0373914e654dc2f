package evq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the reference model: a slice of live entries kept sorted by
// (At, Seq), plus the handle of each entry pushed with one.
type oracle struct {
	live []oracleEntry
}

type oracleEntry struct {
	at  float64
	seq int64
	id  int // payload: push order
	h   Handle
	has bool
}

func (o *oracle) sort() {
	sort.Slice(o.live, func(i, j int) bool {
		a, b := o.live[i], o.live[j]
		//dardlint:floateq total-order comparator: exact compare, then integer sequence tie-break
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
}

// FuzzEventQueue drives the queue with a random sequence of push,
// handle push, remove, re-key and pop and checks it against the sorted
// oracle after every step: pops come out in (At, Seq) order with the
// right payload, removed entries never pop, stale handles are refused,
// and Len always equals the live count.
//
// Seq need only be unique among queued entries, not increasing: a
// re-key sometimes keeps the entry's own Seq, as flowsim's completion
// queue does with flow IDs. At sometimes draws +Inf, where that queue
// parks rate-zero flows; such entries must pop after every finite key,
// in Seq order.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 1, 1, 5, 2, 4, 4, 4})
	f.Add([]byte{1, 1, 1, 1, 3, 3, 2, 2, 4, 4, 4, 4, 2, 3})
	f.Add([]byte{1, 7, 1, 3, 1, 9, 3, 0, 3, 1, 4, 2, 0, 4, 4})
	f.Add([]byte{1, 7, 1, 15, 1, 2, 3, 0x81, 3, 0x8f, 4, 0, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[int]
		var o oracle
		var stale []Handle // handles whose entries popped or were removed
		var seq int64
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%5, ops[k+1]
			// Few distinct times so equal-At ties exercise Seq; 7 stands
			// for +Inf.
			at := float64(arg % 8)
			if at == 7 {
				at = math.Inf(1)
			}
			switch op {
			case 0, 1:
				seq++
				e := oracleEntry{at: at, seq: seq, id: int(seq)}
				if op == 1 {
					e.h, e.has = q.PushHandle(at, seq, e.id), true
				} else {
					q.Push(at, seq, e.id)
				}
				o.live = append(o.live, e)
			case 2, 3:
				// Remove or re-key the arg-th handled live entry.
				var handled []int
				for i, e := range o.live {
					if e.has {
						handled = append(handled, i)
					}
				}
				if len(handled) == 0 {
					continue
				}
				i := handled[int(arg)%len(handled)]
				e := o.live[i]
				if op == 2 {
					if !q.Remove(e.h) {
						t.Fatalf("Remove refused a live handle")
					}
					o.live = append(o.live[:i], o.live[i+1:]...)
					stale = append(stale, e.h)
				} else {
					// The high bit keeps the entry's own Seq.
					newSeq := e.seq
					if arg&0x80 == 0 {
						seq++
						newSeq = seq
					}
					if !q.Rekey(e.h, at, newSeq) {
						t.Fatalf("Rekey refused a live handle")
					}
					o.live[i].at, o.live[i].seq = at, newSeq
				}
			case 4:
				if len(o.live) == 0 {
					continue
				}
				o.sort()
				want := o.live[0]
				got := q.Pop()
				if got.At != want.at || got.Seq != want.seq || got.Val != want.id {
					t.Fatalf("Pop = (%g, %d, %d), want (%g, %d, %d)",
						got.At, got.Seq, got.Val, want.at, want.seq, want.id)
				}
				o.live = o.live[1:]
				if want.has {
					stale = append(stale, want.h)
				}
			}
			if q.Len() != len(o.live) {
				t.Fatalf("Len = %d, want %d live", q.Len(), len(o.live))
			}
			for _, h := range stale {
				if q.Live(h) || q.Remove(h) || q.Rekey(h, 0, 0) {
					t.Fatalf("stale handle %+v still acts on the queue", h)
				}
			}
			if q.Len() != len(o.live) {
				t.Fatalf("stale handle changed Len to %d, want %d", q.Len(), len(o.live))
			}
		}
		// Drain: the rest comes out in order, and once a +Inf entry pops
		// only +Inf entries follow, in increasing Seq.
		o.sort()
		var prev Item[int]
		for i, want := range o.live {
			got := q.Pop()
			if got.Seq != want.seq || got.Val != want.id {
				t.Fatalf("drain popped (%g, %d), want (%g, %d)", got.At, got.Seq, want.at, want.seq)
			}
			if i > 0 && math.IsInf(prev.At, 1) && (!math.IsInf(got.At, 1) || got.Seq <= prev.Seq) {
				t.Fatalf("drain popped (%g, %d) after +Inf entry with Seq %d", got.At, got.Seq, prev.Seq)
			}
			prev = got
		}
		if q.Len() != 0 {
			t.Fatalf("Len = %d after drain", q.Len())
		}
	})
}

// TestZeroHandle pins that the zero Handle names no entry, even once
// slot 0 is in use.
func TestZeroHandle(t *testing.T) {
	var q Queue[int]
	q.PushHandle(1, 1, 0)
	var h Handle
	if q.Live(h) || q.Remove(h) || q.Rekey(h, 0, 2) {
		t.Fatal("zero Handle acted on the queue")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
}

// TestSlotReuse checks that a recycled handle slot does not revive the
// stale Handle that last held it.
func TestSlotReuse(t *testing.T) {
	var q Queue[int]
	old := q.PushHandle(1, 1, 1)
	q.Pop()
	fresh := q.PushHandle(2, 2, 2)
	if q.Remove(old) {
		t.Fatal("stale Handle removed the entry now holding its slot")
	}
	if !q.Live(fresh) || q.Len() != 1 {
		t.Fatal("fresh entry lost")
	}
}

// BenchmarkEventQueue runs the queues on steady loads about as deep as
// the packet engine's. "timers" is a Queue where each step pops the
// earliest entry and pushes one a random delay later, and every fourth
// step re-keys a timer. "offsets/heap" and "offsets/lanes" run one load
// on a Queue and on Lanes: each step pops the earliest entry and pushes
// one at the popped time plus one of four offsets (a propagation delay,
// two serialization times and zero), as packet forwarding does.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("timers", benchTimers)
	b.Run("offsets/heap", func(b *testing.B) {
		var q Queue[int]
		benchOffsets(b, func(now float64, seq int64, v int) {
			q.Push(now+offsets[v%len(offsets)], seq, v)
		}, func() (float64, int) { it := q.Pop(); return it.At, it.Val })
	})
	b.Run("offsets/lanes", func(b *testing.B) {
		var l Lanes[int]
		benchOffsets(b, func(now float64, seq int64, v int) {
			l.Push(now, offsets[v%len(offsets)], seq, v)
		}, func() (float64, int) { it := l.Pop(); return it.At, it.Val })
	})
}

// offsets are the packet engine's scheduling offsets on a 100 Mbps
// fabric: propagation, a full segment's and an ACK's serialization, and
// a same-host delivery.
var offsets = []float64{1e-4, 1540 * 8 / 1e8, 40 * 8 / 1e8, 0}

// benchOffsets runs the offsets load; push receives the current time,
// not the due time, and the payload picks the offset.
func benchOffsets(b *testing.B, push func(now float64, seq int64, v int), pop func() (float64, int)) {
	const depth = 240
	rng := rand.New(rand.NewSource(1))
	var seq int64
	for i := 0; i < depth; i++ {
		seq++
		push(0, seq, rng.Intn(len(offsets)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, _ := pop()
		seq++
		push(now, seq, rng.Intn(len(offsets)))
	}
}

func benchTimers(b *testing.B) {
	// A steady queue ~350 deep, the packet engine's mean depth: each
	// step pops the earliest entry and pushes one a random delay later,
	// and every fourth step re-keys a timer.
	const depth = 350
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var seq int64
	timers := make([]Handle, 0, depth/4)
	for i := 0; i < depth; i++ {
		seq++
		if i%4 == 0 {
			timers = append(timers, q.PushHandle(rng.Float64(), seq, i))
		} else {
			q.Push(rng.Float64(), seq, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := q.Min().At
		if i%4 == 0 {
			seq++
			q.Rekey(timers[i/4%len(timers)], now+rng.Float64(), seq)
			continue
		}
		it := q.Pop()
		seq++
		if it.h >= 0 {
			timers[it.Val/4%len(timers)] = q.PushHandle(now+rng.Float64(), seq, it.Val)
		} else {
			q.Push(now+rng.Float64(), seq, it.Val)
		}
	}
}
