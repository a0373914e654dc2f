package flowsim

import (
	"math"

	"dard/internal/fpcmp"
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
//     reference's tie-broken scan selects.
//
// Flow progress is lazy: Remaining is materialized only when a
// recompute actually changes the flow's rate (applyRate), and the
// projected completion finishAt stays valid in between. Both schedulers
// share applyRate, so the floating-point op sequence — and therefore
// every completion timestamp in the report — is identical.

// compSpan is one connected component of the current recompute: index
// ranges into the shared s.compFlows (flow IDs) and s.linkUsed (links)
// scratch slices. Spans are disjoint by construction.
type compSpan struct {
	flowLo, flowHi int32 // s.compFlows[flowLo:flowHi]
	linkLo, linkHi int32 // s.linkUsed[linkLo:linkHi]
}

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

	// Partition the dirty seeds into connected components. Each unseen
	// seed starts a BFS that alternates link -> member flows -> their
	// links until that component's frontier closes; a later seed already
	// absorbed by an earlier component is skipped. linkUsed doubles as
	// the BFS queue (a component occupies a contiguous range of it), so
	// every link and flow is visited once per epoch. Seed order is the
	// deterministic dirty-link order, so the partition is a pure
	// function of simulation state.
	s.epoch++
	s.linkUsed = s.linkUsed[:0]
	s.compFlows = s.compFlows[:0]
	s.comps = s.comps[:0]
	for _, seed := range s.dirtyLinks {
		s.linkDirty[seed] = false
		if s.linkSeen[seed] == s.epoch {
			continue
		}
		flowLo, linkLo := int32(len(s.compFlows)), int32(len(s.linkUsed))
		s.linkSeen[seed] = s.epoch
		s.linkUsed = append(s.linkUsed, seed)
		for i := int(linkLo); i < len(s.linkUsed); i++ {
			for _, fid := range s.linkFlows[s.linkUsed[i]] {
				if s.seen[fid] == s.epoch {
					continue
				}
				s.seen[fid] = s.epoch
				s.newRate[fid] = -1 // unfrozen
				s.compFlows = append(s.compFlows, fid)
				for _, fl := range s.flowAt(int(fid)).links {
					if s.linkSeen[fl] != s.epoch {
						s.linkSeen[fl] = s.epoch
						s.linkUsed = append(s.linkUsed, fl)
					}
				}
			}
		}
		if int32(len(s.compFlows)) == flowLo {
			continue // seed only touched an empty link (e.g. failing an idle one)
		}
		s.comps = append(s.comps, compSpan{
			flowLo: flowLo, flowHi: int32(len(s.compFlows)),
			linkLo: linkLo, linkHi: int32(len(s.linkUsed)),
		})
	}
	s.dirtyLinks = s.dirtyLinks[:0]
	if len(s.comps) > 1 {
		s.multiComps++
	}
	for _, c := range s.comps {
		s.fillComponent(c)
	}
	// Install every freshly computed rate in stable component order.
	for _, fid := range s.compFlows {
		s.applyRate(s.flowAt(int(fid)), s.newRate[fid])
	}
}

// fillComponent runs progressive filling over one component,
// bottleneck by bottleneck, writing results to s.newRate. Every link of
// the component starts from its full capacity: the component's flows
// are exactly its links' members, so the fill is self-contained.
func (s *Sim) fillComponent(c compSpan) {
	s.lheap.reset()
	links := s.linkUsed[c.linkLo:c.linkHi]
	for _, l := range links {
		s.residual[l] = s.LinkCapacity(l)
		n := len(s.linkFlows[l])
		s.unfrozen[l] = n
		if n > 0 {
			s.lheap.push(l, s.residual[l]/float64(n))
		}
	}
	flows := s.compFlows[c.flowLo:c.flowHi]
	remaining := len(flows)
	for remaining > 0 {
		bottleneck, best, ok := s.lheap.popMin()
		if !ok {
			// Unreachable: every flow crosses at least its host links.
			for _, fid := range flows {
				if s.newRate[fid] < 0 {
					s.newRate[fid] = 0
				}
			}
			break
		}
		if best < 0 {
			best = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck. Once its
		// unfrozen count reaches zero the link leaves the heap, so each
		// membership list is consumed at most once.
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
				if l == bottleneck {
					continue // already popped
				}
				if s.unfrozen[l] == 0 {
					s.lheap.remove(l)
				} else {
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
