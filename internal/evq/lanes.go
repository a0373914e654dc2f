package evq

import "math"

// Lanes is a priority queue on (At, Seq) for entries scheduled at a
// clock plus an offset: every entry is pushed at now+d, where now never
// decreases from one push to the next and Seq increases. Floating-point
// addition is monotone, so the entries sharing one offset d (compared
// bitwise) arrive already sorted by (At, Seq). Lanes keeps one FIFO per
// distinct offset and merges only the lane heads, so a push or pop costs
// O(lanes) comparisons instead of a heap's O(log n) sifts. It pays when
// the offsets are few — the packet kernel's are a link delay, a few
// serialization times and zero — and degrades to a linear merge when
// they are many.
//
// A lane emptied by a pop is recycled, so the number of lanes never
// exceeds the number of distinct offsets with entries pending. Entries
// are plain values, with no handles: a pushed entry leaves only by
// popping. The zero value is an empty queue.
type Lanes[T any] struct {
	lanes []lane[T] // lanes with entries pending, in no order
	spare []lane[T] // emptied lanes, kept for their buffers
	min   int       // index in lanes of the earliest head; valid when n > 0
	n     int
}

// lane is the FIFO of one offset: a ring buffer of power-of-two
// capacity that grows on demand and is then reused.
type lane[T any] struct {
	d    uint64 // the offset's bits
	buf  []Item[T]
	head int
	n    int
}

// Len reports the number of queued entries.
func (l *Lanes[T]) Len() int { return l.n }

// Min returns the earliest entry without removing it; it panics on an
// empty queue.
func (l *Lanes[T]) Min() *Item[T] {
	ln := &l.lanes[l.min]
	return &ln.buf[ln.head]
}

// Push queues v at (now+d, seq). It panics if the entry would not sort
// after the last one queued with the same offset, which happens only
// when now decreased or seq did not increase since that push.
func (l *Lanes[T]) Push(now, d float64, seq int64, v T) {
	bits := math.Float64bits(d)
	i := 0
	for i < len(l.lanes) && l.lanes[i].d != bits {
		i++
	}
	if i == len(l.lanes) {
		l.open(bits)
	}
	ln := &l.lanes[i]
	it := Item[T]{At: now + d, Seq: seq, Val: v, h: -1}
	if ln.n > 0 {
		if tail := &ln.buf[(ln.head+ln.n-1)&(len(ln.buf)-1)]; !tail.before(&it) {
			panic("evq: lane push out of (At, Seq) order")
		}
	}
	ln.push(it)
	l.n++
	// Only a new lane's head can undercut the earliest head.
	if ln.n == 1 && (l.n == 1 || it.before(l.Min())) {
		l.min = i
	}
}

// Pop removes and returns the earliest entry; it panics on an empty
// queue.
func (l *Lanes[T]) Pop() Item[T] {
	ln := &l.lanes[l.min]
	it := ln.pop()
	l.n--
	if ln.n == 0 {
		last := len(l.lanes) - 1
		l.spare = append(l.spare, *ln)
		l.lanes[l.min] = l.lanes[last]
		l.lanes[last] = lane[T]{}
		l.lanes = l.lanes[:last]
	}
	l.min = 0
	for i := 1; i < len(l.lanes); i++ {
		a, b := &l.lanes[i], &l.lanes[l.min]
		if a.buf[a.head].before(&b.buf[b.head]) {
			l.min = i
		}
	}
	return it
}

// open appends an empty lane for offset bits, reusing a spare buffer
// when one is left.
func (l *Lanes[T]) open(bits uint64) {
	var ln lane[T]
	if k := len(l.spare); k > 0 {
		ln = l.spare[k-1]
		l.spare[k-1] = lane[T]{}
		l.spare = l.spare[:k-1]
	}
	ln.d, ln.head = bits, 0
	l.lanes = append(l.lanes, ln)
}

func (ln *lane[T]) push(it Item[T]) {
	if ln.n == len(ln.buf) {
		nb := make([]Item[T], max(8, 2*len(ln.buf)))
		for i := 0; i < ln.n; i++ {
			nb[i] = ln.buf[(ln.head+i)&(len(ln.buf)-1)]
		}
		ln.buf, ln.head = nb, 0
	}
	ln.buf[(ln.head+ln.n)&(len(ln.buf)-1)] = it
	ln.n++
}

func (ln *lane[T]) pop() Item[T] {
	it := ln.buf[ln.head]
	ln.buf[ln.head] = Item[T]{} // drop payload references
	ln.head = (ln.head + 1) & (len(ln.buf) - 1)
	ln.n--
	return it
}
