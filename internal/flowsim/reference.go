package flowsim

import (
	"math"

	"dard/internal/topology"
)

// The retained reference scheduler, selected by Config.Reference.
//
// It implements the engine's semantics in the most direct form: every
// recompute rebuilds the per-link membership lists from every active
// flow, progressive filling finds each bottleneck with a linear scan
// over the in-use links, every active flow's new rate is recomputed from
// scratch, and the next completion is a linear scan over the active set.
// It reads none of the incremental structures (the engine still keeps
// the membership lists and the completion queue current, unread), and
// scopes nothing to components — O(flows x pathlen) per recompute and
// O(flows) per event, obviously correct by inspection.
//
// Both schedulers resolve ties identically — bottlenecks by (share,
// LinkID), completions by (finishAt, flow ID) — and share applyRate, so
// the incremental engine must reproduce the reference's reports byte for
// byte on every scenario; equivalence_test.go enforces exactly that.

// recomputeRatesReference assigns every active flow its max-min fair
// share by progressive filling: repeatedly find the link with the
// smallest residual fair share, freeze its unfrozen flows at that rate,
// subtract their allocation from every link they cross, and continue
// until all flows are frozen.
func (s *Sim) recomputeRatesReference() {
	if len(s.active) == 0 {
		return
	}

	// Stamp the links in use this round, reset their accumulators, and
	// build the per-link membership lists from scratch.
	s.stamp++
	s.linkUsed = s.linkUsed[:0]
	for _, f := range s.active {
		s.newRate[f.ID] = -1 // unfrozen
		for _, l := range f.links {
			if s.refStamp[l] != s.stamp {
				s.refStamp[l] = s.stamp
				s.residual[l] = s.LinkCapacity(l)
				s.unfrozen[l] = 0
				s.refFlows[l] = s.refFlows[l][:0]
				s.linkUsed = append(s.linkUsed, l)
			}
			s.unfrozen[l]++
			s.refFlows[l] = append(s.refFlows[l], int32(f.ID))
		}
	}

	remaining := len(s.active)
	for remaining > 0 {
		// Bottleneck link: smallest residual fair share, ties broken by
		// the lower link ID (the same total order the incremental
		// engine's link heap pops in).
		var bottleneck topology.LinkID = -1
		best := 0.0
		for _, l := range s.linkUsed {
			if s.unfrozen[l] == 0 {
				continue
			}
			share := s.residual[l] / float64(s.unfrozen[l])
			//dardlint:floateq reference scheduler mirrors the link heap's exact-compare + link-ID tie-break
			if bottleneck < 0 || share < best || (share == best && l < bottleneck) {
				bottleneck, best = l, share
			}
		}
		if bottleneck < 0 {
			// Unreachable: every flow crosses at least its host links.
			for _, f := range s.active {
				if s.newRate[f.ID] < 0 {
					s.newRate[f.ID] = 0
				}
			}
			break
		}
		if best < 0 {
			best = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck. Once its
		// unfrozen count reaches zero the link is never selected again,
		// so each membership list is consumed at most once.
		for _, fid := range s.refFlows[bottleneck] {
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
			}
		}
	}

	for _, f := range s.active {
		s.applyRate(f, s.newRate[f.ID])
	}
}

// nextCompletionReference scans the active set for the earliest
// completion, breaking finish-time ties by the lower flow ID — the same
// total order the completion queue's minimum satisfies. It returns
// math.MaxFloat64 and nil when no active flow is making progress.
func (s *Sim) nextCompletionReference() (float64, *Flow) {
	const none = math.MaxFloat64
	t, next := none, (*Flow)(nil)
	for _, f := range s.active {
		at := s.finishAt[f.ID]
		if at >= none {
			continue // stranded (rate zero)
		}
		//dardlint:floateq reference scheduler mirrors the completion queue's exact-compare + flow-ID tie-break
		if next == nil || at < t || (at == t && f.ID < next.ID) {
			t, next = at, f
		}
	}
	return t, next
}
