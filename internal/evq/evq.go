// Package evq holds the module's (At, Seq) priority queues: Queue, a
// value-typed 4-ary min-heap, and Lanes, a merge of FIFOs for entries
// scheduled at a clock plus one of a few offsets (lanes.go). The key is
// total — Seq is unique among queued entries — so the pop order is
// unique whatever the internal layout, which is what keeps the engines
// deterministic. Event kernels hand out increasing sequence numbers;
// flowsim's completion queue keys each flow by its ID, and the
// open-arrival merge by source host.
//
// Entries are stored by value and compared on their inline At and Seq
// fields, so ordering never calls through the payload type or chases a
// pointer. Entries pushed with PushHandle can later be removed or
// re-keyed in place through their Handle; the queue tracks those
// entries' positions, so a removed entry leaves the heap at once and
// Len always counts live entries only.
package evq

// Item is one queued entry.
type Item[T any] struct {
	At  float64
	Seq int64
	Val T
	// h is the entry's handle slot, or -1 when it has none.
	h int32
}

// Handle names an entry pushed with PushHandle. The zero Handle names no
// entry, and a Handle goes stale once its entry pops or is removed:
// operations on it then report false.
type Handle struct {
	slot int32
	gen  uint32 // slot generation; slots start at generation 1
}

// Queue is a min-heap on (At, Seq). The zero value is an empty queue.
type Queue[T any] struct {
	items []Item[T]
	// pos[slot] is the heap index of the entry holding the slot, and
	// gen[slot] the generation a Handle must carry to name it. Free
	// slots are stacked in free.
	pos  []int32
	gen  []uint32
	free []int32
}

// Len reports the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.items) }

// Min returns the earliest entry without removing it; it panics on an
// empty queue.
func (q *Queue[T]) Min() *Item[T] { return &q.items[0] }

// Items exposes the queued entries in heap order (not sorted). The
// slice is valid until the next mutation and must not be modified.
func (q *Queue[T]) Items() []Item[T] { return q.items }

// Push queues v at (at, seq).
func (q *Queue[T]) Push(at float64, seq int64, v T) {
	q.items = append(q.items, Item[T]{At: at, Seq: seq, Val: v, h: -1})
	q.up(len(q.items) - 1)
}

// PushHandle queues v at (at, seq) and returns a Handle through which
// the entry can be removed or re-keyed while it is queued.
func (q *Queue[T]) PushHandle(at float64, seq int64, v T) Handle {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.pos))
		q.pos = append(q.pos, 0)
		q.gen = append(q.gen, 1)
	}
	i := len(q.items)
	q.items = append(q.items, Item[T]{At: at, Seq: seq, Val: v, h: slot})
	q.pos[slot] = int32(i)
	q.up(i)
	return Handle{slot: slot, gen: q.gen[slot]}
}

// Pop removes and returns the earliest entry; it panics on an empty
// queue. A popped entry's Handle goes stale.
func (q *Queue[T]) Pop() Item[T] {
	top := q.items[0]
	q.release(top.h)
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = Item[T]{} // drop payload references
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top
}

// Live reports whether h names a queued entry.
func (q *Queue[T]) Live(h Handle) bool {
	return h.gen != 0 && int(h.slot) < len(q.gen) && q.gen[h.slot] == h.gen
}

// Remove takes h's entry out of the queue; it reports false (and does
// nothing) when h is stale.
func (q *Queue[T]) Remove(h Handle) bool {
	if !q.Live(h) {
		return false
	}
	i := int(q.pos[h.slot])
	q.release(h.slot)
	q.cut(i)
	return true
}

// Rekey moves h's entry to (at, seq) in place, keeping its payload and
// handle; it reports false (and does nothing) when h is stale.
func (q *Queue[T]) Rekey(h Handle, at float64, seq int64) bool {
	if !q.Live(h) {
		return false
	}
	i := int(q.pos[h.slot])
	q.items[i].At, q.items[i].Seq = at, seq
	q.fix(i)
	return true
}

// release retires a handle slot so stale Handles no longer match it.
func (q *Queue[T]) release(slot int32) {
	if slot < 0 {
		return
	}
	q.gen[slot]++
	if q.gen[slot] == 0 { // wrapped: 0 is the zero Handle's generation
		q.gen[slot] = 1
	}
	q.free = append(q.free, slot)
}

// cut deletes the entry at index i, filling the hole with the last entry.
func (q *Queue[T]) cut(i int) {
	last := len(q.items) - 1
	if i != last {
		q.items[i] = q.items[last]
	}
	q.items[last] = Item[T]{} // drop payload references
	q.items = q.items[:last]
	if i != last {
		q.fix(i)
	}
}

// fix restores heap order after the entry at i changed key.
func (q *Queue[T]) fix(i int) {
	if !q.up(i) {
		q.down(i)
	}
}

// Before is the total (At, Seq) order on keys: it reports whether
// (at1, seq1) sorts ahead of (at2, seq2). Queue and Lanes pop in this
// order, and a caller merging several of them compares heads with it.
func Before(at1 float64, seq1 int64, at2 float64, seq2 int64) bool {
	//dardlint:floateq total-order comparator: exact compare, then integer sequence tie-break
	return at1 < at2 || (at1 == at2 && seq1 < seq2)
}

func (a *Item[T]) before(b *Item[T]) bool { return Before(a.At, a.Seq, b.At, b.Seq) }

// up sifts the entry at i toward the root and reports whether it moved.
func (q *Queue[T]) up(i int) bool {
	a := q.items
	x := a[i]
	start := i
	for i > 0 {
		p := (i - 1) >> 2
		if a[p].before(&x) {
			break
		}
		a[i] = a[p]
		if h := a[i].h; h >= 0 {
			q.pos[h] = int32(i)
		}
		i = p
	}
	a[i] = x
	if x.h >= 0 {
		q.pos[x.h] = int32(i)
	}
	return i != start
}

// down sifts the entry at i toward the leaves.
func (q *Queue[T]) down(i int) {
	a := q.items
	n := len(a)
	x := a[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if a[j].before(&a[m]) {
				m = j
			}
		}
		if x.before(&a[m]) {
			break
		}
		a[i] = a[m]
		if h := a[i].h; h >= 0 {
			q.pos[h] = int32(i)
		}
		i = m
	}
	a[i] = x
	if x.h >= 0 {
		q.pos[x.h] = int32(i)
	}
}
