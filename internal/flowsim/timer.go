package flowsim

import "dard/internal/sched"

// timer is one scheduled control-plane callback. ref carries the
// checkpoint descriptor (snapshot.go): closures cannot be serialized,
// so a snapshot records (at, seq, ref) and restore rebuilds the closure
// from the descriptor.
type timer struct {
	at  float64
	seq int64 // tie-breaker for deterministic ordering
	ref sched.TimerRef
	fn  func()
}

// timerHeap is a hand-rolled min-heap on (at, seq): the (time, sequence)
// order is total, so the pop sequence is unique regardless of internal
// layout. Direct sift methods avoid container/heap's interface{} boxing
// on the engine's hot path.
type timerHeap []*timer

func (h timerHeap) less(i, j int) bool {
	//dardlint:floateq total-order comparator: exact compare, then integer sequence tie-break
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t *timer) {
	*h = append(*h, t)
	a := *h
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *timerHeap) pop() *timer {
	a := *h
	t := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = nil
	a = a[:last]
	*h = a
	// Sift the new root down.
	i := 0
	for {
		left := 2*i + 1
		if left >= len(a) {
			break
		}
		child := left
		if right := left + 1; right < len(a) && a.less(right, left) {
			child = right
		}
		if !a.less(child, i) {
			break
		}
		a[i], a[child] = a[child], a[i]
		i = child
	}
	return t
}

func (h timerHeap) nextAt() float64 { return h[0].at }
func (h timerHeap) empty() bool     { return len(h) == 0 }
