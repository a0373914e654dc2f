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

// linkHeap is the bottleneck heap of progressive filling: an indexed
// d-ary min-heap of links keyed on (fair share, LinkID). A fill appends
// its component's candidate links unordered (add), orders them once in
// O(n) (heapify), then pops bottlenecks and re-keys the links a freeze
// crossed. pos is indexed by LinkID and holds a link's slot while the
// link is in the heap; it is stale otherwise, so re-keying a link that
// is not in the heap corrupts it. The fill only re-keys links that
// still carry unfrozen flows, which it pushed and has not popped
// (maxmin.go), so reset need not clear pos.
type linkHeap struct {
	a   []linkEntry
	pos []int32 // by LinkID; valid only while the link is in the heap
}

// linkEntry is one heap slot. Keeping the key beside the ID makes a
// comparison one load per side.
type linkEntry struct {
	share float64
	id    topology.LinkID
}

// linkArity is the heap's fan-out. Four halves the depth a sift-down
// walks against two, and a node's four 16-byte children span about one
// cache line; on flow-dard it ran about 3% faster than a binary heap.
const linkArity = 4

func newLinkHeap(numLinks int) *linkHeap {
	return &linkHeap{pos: make([]int32, numLinks)}
}

// ensure grows the position index to cover numLinks links.
func (h *linkHeap) ensure(numLinks int) {
	if n := numLinks - len(h.pos); n > 0 {
		h.pos = append(h.pos, make([]int32, n)...)
	}
}

func linkLess(x, y linkEntry) bool {
	//dardlint:floateq total-order comparator: exact compare, then integer link-ID tie-break
	if x.share != y.share {
		return x.share < y.share
	}
	return x.id < y.id
}

// reset empties the heap.
func (h *linkHeap) reset() { h.a = h.a[:0] }

// add appends a link without restoring heap order; call heapify once
// every link is added.
func (h *linkHeap) add(l topology.LinkID, share float64) {
	h.pos[l] = int32(len(h.a))
	h.a = append(h.a, linkEntry{share, l})
}

// heapify orders the added links bottom-up in O(n).
func (h *linkHeap) heapify() {
	for i := (len(h.a) - 2) / linkArity; i >= 0; i-- {
		h.down(i, h.a[i])
	}
}

// popMin removes and returns the link with the smallest (share, ID) key.
func (h *linkHeap) popMin() (topology.LinkID, float64, bool) {
	if len(h.a) == 0 {
		return -1, 0, false
	}
	top := h.a[0]
	last := len(h.a) - 1
	e := h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0, e)
	}
	return top.id, top.share, true
}

// update re-keys a link that is in the heap.
func (h *linkHeap) update(l topology.LinkID, share float64) {
	i := int(h.pos[l])
	e := linkEntry{share, l}
	if i > 0 && linkLess(e, h.a[(i-1)/linkArity]) {
		h.up(i, e)
	} else {
		h.down(i, e)
	}
}

// up places e at slot i or above, moving larger parents down.
func (h *linkHeap) up(i int, e linkEntry) {
	for i > 0 {
		parent := (i - 1) / linkArity
		p := h.a[parent]
		if !linkLess(e, p) {
			break
		}
		h.a[i] = p
		h.pos[p.id] = int32(i)
		i = parent
	}
	h.a[i] = e
	h.pos[e.id] = int32(i)
}

// down places e at slot i or below, moving smaller children up.
func (h *linkHeap) down(i int, e linkEntry) {
	n := len(h.a)
	for {
		first := linkArity*i + 1
		if first >= n {
			break
		}
		end := min(first+linkArity, n)
		c, ce := first, h.a[first]
		for j := first + 1; j < end; j++ {
			if linkLess(h.a[j], ce) {
				c, ce = j, h.a[j]
			}
		}
		if !linkLess(ce, e) {
			break
		}
		h.a[i] = ce
		h.pos[ce.id] = int32(i)
		i = c
	}
	h.a[i] = e
	h.pos[e.id] = int32(i)
}
