package flowsim

import "dard/internal/topology"

// This file holds the two heaps of the incremental max-min fill (see
// maxmin.go): the bottleneck heap of links and the differential fill's
// heap of record freezes. The engine's other orderings, the completion
// queue and the control-plane timers, sit in the shared event queue
// (internal/evq). The fill keeps heaps of its own because it rebuilds
// them for every recompute and indexes link positions by LinkID instead
// of through handles.
//
// Ties break on the stable LinkID, so the link the heap surfaces is a
// pure function of the keys — independent of insertion order and of
// the heap's internal layout. That is what lets the reference
// implementation (reference.go) reproduce the heap's choices with a
// plain linear scan.

// linkHeap is the bottleneck heap of progressive filling: an indexed
// d-ary min-heap of links keyed on (fair share, LinkID). A component
// fill appends its candidate links unordered (add) and orders them once
// in O(n) (heapify); the differential fill pushes its tainted links one
// by one (push). Both then pop bottlenecks and re-key the links a
// freeze crossed. pos is indexed by LinkID and holds a link's slot
// while the link is in the heap; it is stale otherwise, so re-keying a
// link that is not in the heap corrupts it. The fills only re-key links
// that still carry unfrozen flows, which they pushed and have not
// popped (maxmin.go), so reset need not clear pos.
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

// push adds a link and restores heap order.
func (h *linkHeap) push(l topology.LinkID, share float64) {
	h.add(l, share)
	h.up(len(h.a)-1, linkEntry{share, l})
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

// recordEntry is a record freeze the differential fill (maxmin.go)
// replays: flow's last fill froze it at rate, in place at.
type recordEntry struct {
	at   recKey
	flow int32
	rate float64
}

// recordHeap is the differential fill's queue of record freezes: a
// d-ary min-heap on (place, flow). Entries are never re-keyed, so it
// needs no position index. Ties between a record and a link of the
// link heap are settled by the fill, not here.
type recordHeap struct {
	a []recordEntry
}

func recordLess(x, y recordEntry) bool {
	if recKeyLess(x.at, y.at) {
		return true
	}
	if recKeyLess(y.at, x.at) {
		return false
	}
	return x.flow < y.flow
}

func (h *recordHeap) reset() { h.a = h.a[:0] }

func (h *recordHeap) push(e recordEntry) {
	h.a = append(h.a, e)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / linkArity
		if !recordLess(e, h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

// pop removes the least entry; the heap must not be empty.
func (h *recordHeap) pop() recordEntry {
	top := h.a[0]
	last := len(h.a) - 1
	e := h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0, e)
	}
	return top
}

func (h *recordHeap) down(i int, e recordEntry) {
	n := len(h.a)
	for {
		first := linkArity*i + 1
		if first >= n {
			break
		}
		end := min(first+linkArity, n)
		c, ce := first, h.a[first]
		for j := first + 1; j < end; j++ {
			if recordLess(h.a[j], ce) {
				c, ce = j, h.a[j]
			}
		}
		if !recordLess(ce, e) {
			break
		}
		h.a[i] = ce
		i = c
	}
	h.a[i] = e
}
