package flowsim

import (
	"math"

	"dard/internal/fpcmp"
	"dard/internal/topology"
)

// The incremental max-min engine.
//
// Rates are assigned by progressive filling — repeatedly freeze the
// flows of the link with the smallest residual fair share — exactly as
// in the retained reference scheduler (reference.go). Three structural
// optimizations keep the hot path sub-quadratic without changing a
// single bit of the result:
//
//  1. Per-link flow-membership lists are maintained incrementally on
//     arrival, departure, and path switch (attachLinks/detachLinks)
//     instead of being rebuilt from every active flow on every
//     recompute. List order is free: flows frozen in one filling batch
//     all receive the same rate, and each link's residual is reduced by
//     that one value once per member, so the arithmetic is independent
//     of membership order.
//
//  2. Recomputation is scoped to the part of the flow/link sharing
//     graph the triggering events actually touched. Every membership or
//     capacity change seeds its link (markLinkDirty); a BFS over the
//     bipartite sharing graph expands each seed into its connected
//     component. Progressive filling decomposes over connected
//     components — a component's fill sequence never reads another
//     component's state — so flows outside the affected components keep
//     their frozen rates, and the affected components themselves can be
//     filled in any order. They are filled one after another, in
//     dirty-link order, and their rates installed in that same order.
//
//  3. The per-iteration bottleneck search is an indexed min-heap over
//     link fair shares keyed (share, LinkID) instead of a linear scan.
//     The key is a total order, so the heap pops exactly the link the
//     reference's tie-broken scan selects, provided the heap holds every
//     link that can be that minimum. It holds fewer links than the
//     reference scans, by two exact arguments:
//
//     Drained links stay. A link whose unfrozen count reaches zero is
//     not removed; when it later pops it is skipped. The reference never
//     selects such a link, and a stale entry reorders no live one, so
//     the live pops are the reference's selections in the same order.
//
//     One single-flow link per flow. A link crossed by exactly one flow
//     f keeps residual = capacity, so its share (capacity/1, exactly the
//     capacity) does not move until f freezes, and then it drains. Of
//     f's single-flow links, only the least by (capacity, LinkID) can be
//     the minimum while f is unfrozen: it is live as long as any of them
//     is, and its key is smaller. So only that one is pushed; the others
//     would only ever pop drained. Multi-flow links are all pushed.
//
//     Every pushed link that still carries unfrozen flows has never
//     popped, so re-keying after a freeze touches only links in the
//     heap. A component's entries are appended as its BFS first reaches
//     each link and heapified once, in O(n), before its fill.
//
// Flow progress is lazy: Remaining is materialized only when a
// recompute actually changes the flow's rate (applyRate), and the
// projected completion finishAt stays valid in between. Both schedulers
// share applyRate, so the floating-point op sequence — and therefore
// every completion timestamp in the report — is identical.

// recomputeRates reassigns max-min fair rates to every flow whose
// allocation may have changed since the last recompute.
func (s *Sim) recomputeRates() {
	s.ratesDirty = false
	if s.cfg.Reference {
		s.recomputeRatesReference()
		return
	}
	if len(s.dirtyLinks) == 0 {
		return
	}
	if len(s.active) == 0 {
		s.clearDirtyLinks()
		return
	}

	// Partition the dirty seeds into connected components and fill each
	// as soon as its BFS closes. Each unseen seed starts a BFS that
	// alternates link -> member flows -> their links until that
	// component's frontier closes; a later seed already absorbed by an
	// earlier component is skipped. linkUsed doubles as the BFS queue,
	// so every link and flow is visited once per epoch. Seed order is
	// the deterministic dirty-link order, so the partition and the fill
	// order are pure functions of simulation state. Components share no
	// flow and no link, so filling one before the next BFS reads nothing
	// that BFS writes.
	s.epoch++
	s.linkUsed = s.linkUsed[:0]
	s.compFlows = s.compFlows[:0]
	comps := 0
	for _, seed := range s.dirtyLinks {
		s.linkDirty[seed] = false
		if s.linkSeen[seed] == s.epoch {
			continue
		}
		flowLo, linkLo := len(s.compFlows), len(s.linkUsed)
		s.lheap.reset()
		s.reachLink(seed)
		for i := linkLo; i < len(s.linkUsed); i++ {
			for _, fid := range s.linkFlows[s.linkUsed[i]] {
				if s.seen[fid] == s.epoch {
					continue
				}
				s.seen[fid] = s.epoch
				s.newRate[fid] = -1 // unfrozen
				s.compFlows = append(s.compFlows, fid)
				single := linkEntry{id: -1} // least single-flow link of fid
				for _, fl := range s.flowAt(int(fid)).links {
					if s.linkSeen[fl] != s.epoch {
						s.reachLink(fl)
					}
					if s.unfrozen[fl] == 1 {
						if e := (linkEntry{s.capacity[fl], fl}); single.id < 0 || linkLess(e, single) {
							single = e
						}
					}
				}
				if single.id >= 0 {
					s.lheap.add(single.id, single.share)
				}
			}
		}
		if len(s.compFlows) == flowLo {
			continue // seed only touched an empty link (e.g. failing an idle one)
		}
		comps++
		s.fillComponent(s.compFlows[flowLo:])
	}
	s.dirtyLinks = s.dirtyLinks[:0]
	if comps > 1 {
		s.multiComps++
	}
	// Install every freshly computed rate in stable component order.
	for _, fid := range s.compFlows {
		s.applyRate(s.flowAt(int(fid)), s.newRate[fid])
	}
}

// reachLink is the BFS's first visit of l in this recompute: it queues
// l, starts its fill accumulators from the full capacity, and adds it to
// the bottleneck heap when more than one flow shares it (single-flow
// links are added per flow, see item 3 above).
func (s *Sim) reachLink(l topology.LinkID) {
	s.linkSeen[l] = s.epoch
	s.linkUsed = append(s.linkUsed, l)
	c, n := s.capacity[l], int32(len(s.linkFlows[l]))
	s.residual[l] = c
	s.unfrozen[l] = n
	if n > 1 {
		s.lheap.add(l, c/float64(n))
	}
}

// fillComponent runs progressive filling over one component, whose
// links the BFS has just reached and added to the heap, bottleneck by
// bottleneck, writing results to s.newRate. The component's flows are
// exactly its links' members, so the fill is self-contained.
func (s *Sim) fillComponent(flows []int32) {
	s.lheap.heapify()
	remaining := len(flows)
	for remaining > 0 {
		bottleneck, best, ok := s.lheap.popMin()
		if !ok {
			// Unreachable: every unfrozen flow keeps a live link in the heap.
			for _, fid := range flows {
				if s.newRate[fid] < 0 {
					s.newRate[fid] = 0
				}
			}
			break
		}
		if s.unfrozen[bottleneck] == 0 {
			continue // drained: its flows froze at other bottlenecks
		}
		if best < 0 {
			best = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck. Its
		// unfrozen count reaches zero here, so each membership list is
		// consumed at most once.
		for _, fid := range s.linkFlows[bottleneck] {
			if s.newRate[fid] >= 0 {
				continue
			}
			s.newRate[fid] = best
			remaining--
			for _, l := range s.flowAt(int(fid)).links {
				s.residual[l] -= best
				if s.residual[l] < 0 {
					s.residual[l] = 0
				}
				s.unfrozen[l]--
				if l != bottleneck && s.unfrozen[l] > 0 {
					s.lheap.update(l, s.residual[l]/float64(s.unfrozen[l]))
				}
			}
		}
	}
}

// applyRate installs a freshly computed rate. If it differs from the
// flow's current rate, the flow's progress is materialized first —
// Remaining shrinks by the old rate over the elapsed span — and the
// completion projection is rebuilt. An unchanged rate is a strict no-op:
// Remaining, syncAt, and finishAt keep their bits, which is what lets
// the incremental engine skip untouched components entirely. Both
// schedulers share this function, so their floating-point op sequences
// are identical by construction.
func (s *Sim) applyRate(f *Flow, rate float64) {
	id := f.ID
	if fpcmp.Eq(rate, s.rate[id]) {
		return
	}
	if dt := s.now - s.syncAt[id]; dt > 0 {
		s.remaining[id] -= s.rate[id] * dt
		if s.remaining[id] < 0 {
			s.remaining[id] = 0
		}
	}
	s.syncAt[id] = s.now
	s.rate[id] = rate
	if rate > 0 {
		s.finishAt[id] = s.now + s.remaining[id]/rate
	} else {
		s.finishAt[id] = math.Inf(1)
	}
	if !s.cfg.Reference {
		s.done.fix(int32(id))
	}
}

// clearDirtyLinks drops pending seeds without recomputing (no active
// flows can depend on them).
func (s *Sim) clearDirtyLinks() {
	for _, l := range s.dirtyLinks {
		s.linkDirty[l] = false
	}
	s.dirtyLinks = s.dirtyLinks[:0]
}
