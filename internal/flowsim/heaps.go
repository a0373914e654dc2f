package flowsim

import "dard/internal/topology"

// This file holds the two indexed min-heaps of the incremental engine
// (see maxmin.go). Both break ties on a stable integer identity, so the
// element they surface is a pure function of the keys — independent of
// insertion order and of the heap's internal layout. That property is
// what lets the reference implementation (reference.go) reproduce the
// heaps' choices with plain linear scans, and what makes the order in
// which applyRate re-fixes heap entries observably irrelevant.

// finishHeap is an indexed min-heap of active flow IDs keyed on
// (finishAt, ID): the next completion is the root. Keys live in the
// Sim's struct-of-arrays state (s.finishAt) and positions in s.heapIdx,
// so the heap itself is a flat []int32. Flows whose rate is zero sit in
// the heap with finishAt = +Inf and simply never surface.
type finishHeap struct {
	s *Sim
	a []int32
}

func (h *finishHeap) less(x, y int32) bool {
	//dardlint:floateq total-order comparator: exact compare, then integer flow-ID tie-break
	if h.s.finishAt[x] != h.s.finishAt[y] {
		return h.s.finishAt[x] < h.s.finishAt[y]
	}
	return x < y
}

// min returns the earliest-finishing flow's ID, -1 when empty.
func (h *finishHeap) min() int32 {
	if len(h.a) == 0 {
		return -1
	}
	return h.a[0]
}

func (h *finishHeap) push(id int32) {
	h.s.heapIdx[id] = int32(len(h.a))
	h.a = append(h.a, id)
	h.up(int(h.s.heapIdx[id]))
}

// remove deletes id from the heap in O(log n).
func (h *finishHeap) remove(id int32) {
	i := int(h.s.heapIdx[id])
	if i < 0 {
		return
	}
	last := len(h.a) - 1
	h.swap(i, last)
	h.a = h.a[:last]
	h.s.heapIdx[id] = -1
	if i < last {
		h.fixAt(i)
	}
}

// fix restores heap order after id's finishAt changed.
func (h *finishHeap) fix(id int32) {
	if i := h.s.heapIdx[id]; i >= 0 {
		h.fixAt(int(i))
	}
}

func (h *finishHeap) fixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *finishHeap) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.s.heapIdx[h.a[i]] = int32(i)
	h.s.heapIdx[h.a[j]] = int32(j)
}

func (h *finishHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.a[i], h.a[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves; it reports whether i moved.
func (h *finishHeap) down(i int) bool {
	start := i
	n := len(h.a)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(h.a[right], h.a[left]) {
			child = right
		}
		if !h.less(h.a[child], h.a[i]) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}

// linkHeap is an indexed min-heap over links keyed on (fair share,
// LinkID), used by the progressive-filling loop to pop the bottleneck
// link in O(log L) instead of scanning every in-use link. pos is indexed
// by LinkID (-1 = not in the heap) so key updates after a freeze are
// O(log L) per touched link.
type linkHeap struct {
	ids []topology.LinkID
	key []float64
	pos []int32 // by LinkID; -1 when absent
}

func newLinkHeap(numLinks int) *linkHeap {
	h := &linkHeap{pos: make([]int32, numLinks)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// ensure grows the position index to cover numLinks links.
func (h *linkHeap) ensure(numLinks int) {
	for len(h.pos) < numLinks {
		h.pos = append(h.pos, -1)
	}
}

func (h *linkHeap) linkLess(i, j int) bool {
	//dardlint:floateq total-order comparator: exact compare, then integer link-ID tie-break
	if h.key[i] != h.key[j] {
		return h.key[i] < h.key[j]
	}
	return h.ids[i] < h.ids[j]
}

// reset empties the heap (defensive: a normal filling pass drains it).
func (h *linkHeap) reset() {
	for _, l := range h.ids {
		h.pos[l] = -1
	}
	h.ids = h.ids[:0]
	h.key = h.key[:0]
}

func (h *linkHeap) push(l topology.LinkID, share float64) {
	i := len(h.ids)
	h.ids = append(h.ids, l)
	h.key = append(h.key, share)
	h.pos[l] = int32(i)
	h.up(i)
}

// popMin removes and returns the link with the smallest (share, ID) key.
func (h *linkHeap) popMin() (topology.LinkID, float64, bool) {
	if len(h.ids) == 0 {
		return -1, 0, false
	}
	l, share := h.ids[0], h.key[0]
	h.removeAt(0)
	return l, share, true
}

// update re-keys a link if present; no-op otherwise.
func (h *linkHeap) update(l topology.LinkID, share float64) {
	i := h.pos[l]
	if i < 0 {
		return
	}
	h.key[i] = share
	if !h.down(int(i)) {
		h.up(int(i))
	}
}

// remove deletes a link if present; no-op otherwise.
func (h *linkHeap) remove(l topology.LinkID) {
	if i := h.pos[l]; i >= 0 {
		h.removeAt(int(i))
	}
}

func (h *linkHeap) removeAt(i int) {
	last := len(h.ids) - 1
	h.swap(i, last)
	h.pos[h.ids[last]] = -1
	h.ids = h.ids[:last]
	h.key = h.key[:last]
	if i < last {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h *linkHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.key[i], h.key[j] = h.key[j], h.key[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *linkHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.linkLess(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *linkHeap) down(i int) bool {
	start := i
	n := len(h.ids)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.linkLess(right, left) {
			child = right
		}
		if !h.linkLess(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}
