package flowsim

import (
	"math"
	"slices"

	"dard/internal/fpcmp"
	"dard/internal/topology"
)

// The incremental max-min engine.
//
// Rates are assigned by progressive filling — repeatedly freeze the
// flows of the link with the smallest residual fair share — exactly as
// in the retained reference scheduler (reference.go). Pops are ordered
// by the total key (share, LinkID). Per-link flow-membership lists are
// kept on arrival, departure and path switch (attachLinks/detachLinks).
// Their order is free: the flows one pop freezes all get the same rate,
// and each link's residual drops by that one value once per member.
//
// A recompute normally runs the differential fill and falls back to
// the component fill; both give the reference's bits.
//
// Differential fill (fillDifferential). Every flow keeps the record of
// its last freeze: the rate, the bottleneck, and its place in that
// fill's pop order (newRate, recLink, recAt). Together the records
// describe one fill of the current state; a component no change touched
// keeps records that still describe it. Pops normally come in rising
// key order, so a place is the pop's key; dips, below, are the
// exception.
//
// A link is untainted while its capacity, its members and each member's
// freeze are as recorded. Its residual and unfrozen count then pass
// through the recorded bits at the recorded places, so it needs no
// work. Dirty links start out tainted; attach and detach dirty every
// link of a flow that arrived, left or moved, so such a flow crosses
// only tainted links and needs no record. The sweep runs the new fill
// in pop order but works only the tainted part. It pops two kinds of
// entry: tainted links, keyed by their live share, and the records of
// pending flows that cross an untainted link, keyed by place.
//
//   - A tainted link that pops live freezes its pending members at its
//     share. A member whose record (rate bits, bottleneck, place)
//     changes first taints all its links at this level.
//   - A record whose bottleneck is untainted fires: the bottleneck is
//     in its recorded state, so the full fill pops it in the recorded
//     place and freezes the flow there.
//   - A record whose bottleneck is tainted does not fire. If its flow is
//     still pending when the sweep passes its place, the flow freezes
//     later than recorded, so its links are tainted there.
//
// A link tainted at a level rebuilds its residual (taint). It was
// untainted, so its members frozen so far are exactly those whose
// record lies below the level, and they froze as recorded. Subtracting
// their rates from the capacity in record order, clamping at 0 as the
// fill does, repeats the recorded arithmetic bit for bit. Members
// recorded at or above the level are pending.
//
// Skipping untainted links cannot reorder anything. An untainted live
// link has its recorded key, and the recorded fill popped every key
// below it first, so the sweep's events come in the full fill's order.
// Flows the sweep never touches keep their records, which still hold.
//
// Ties. A link and a record with the same key are one pop of that link,
// so the link goes first and the record then finds its flow frozen.
// Records in the same place subtract the same value, so their order is
// free.
//
// Rounding. In exact arithmetic a freeze at the minimum share cannot
// lower another link's share, but a rounded subtraction can: a link
// whose share tied the popped one can come out an ulp below it and pop
// next, below the level. Such a pop is a dip. The component fill records
// a dip's flows just after the level's pop, ranked by dip order
// (recKey.seq), so record order stays pop order. Untainted dips replay
// as recorded. The sweep gives up when a tainted link would pop below
// the level, or when a link it taints already lies below it.
//
// Fallback (fillComponents). The sweep gives up, having installed
// nothing, in three cases. A pending flow needs a record and has none:
// records are derived state the snapshot does not carry, so a restored
// run starts without them. A tainted pop falls below the level. Or the
// tainted links' memberships pass 1/maxTaintShare of all memberships.
// The component fill then overwrites everything the sweep wrote,
// records included. It scopes the work in two exact ways:
//
//  1. Components. A BFS over the flow/link sharing graph expands each
//     dirty seed into its connected component. Progressive filling
//     decomposes over components — a component's fill never reads
//     another's state — so only the seeds' components are refilled, one
//     after another, in dirty-link order.
//
//  2. Candidate links. The bottleneck heap holds fewer links than the
//     reference scans. A drained link (no unfrozen flows) stays and is
//     skipped when it pops; a stale entry reorders no live one. Of a
//     flow f's single-flow links, whose share is their capacity until f
//     freezes, only the least by (capacity, LinkID) can be the minimum,
//     so only that one is pushed. Multi-flow links are all pushed. Every
//     pushed link that still carries unfrozen flows has never popped,
//     so re-keying after a freeze touches only links in the heap. A
//     component's entries are appended as its BFS first reaches each
//     link and heapified once, in O(n), before its fill.
//
// Flow progress is lazy: Remaining is materialized only when a
// recompute actually changes the flow's rate (applyRate), and the
// projected completion finishAt stays valid in between; applyRate
// re-keys the flow in the completion queue (Sim.done) at the same time.
// Both schedulers share applyRate, so the floating-point op sequence —
// and therefore every completion timestamp in the report — is
// identical. An unchanged rate is a no-op, so the flows a fill touches
// can be installed in any order.

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
	if s.fillDifferential() {
		s.diffFills++
	} else {
		s.fullFills++
		s.fillComponents()
	}
	s.clearDirtyLinks()
	// Install every freshly computed rate in fill order.
	for _, fid := range s.compFlows {
		s.applyRate(s.flowAt(int(fid)), s.newRate[fid])
	}
}

// fillComponents is the exact fallback: it refills every connected
// component that holds a dirty seed from scratch, and records each
// flow's freeze for the next differential fill.
//
// Each unseen seed starts a BFS that alternates link -> member flows ->
// their links until that component's frontier closes; a later seed
// already absorbed by an earlier component is skipped. linkUsed doubles
// as the BFS queue, so every link and flow is visited once per epoch.
// Seed order is the deterministic dirty-link order, so the partition and
// the fill order are pure functions of simulation state. Components
// share no flow and no link, so filling one before the next BFS reads
// nothing that BFS writes.
func (s *Sim) fillComponents() {
	s.epoch++
	s.linkUsed = s.linkUsed[:0]
	s.compFlows = s.compFlows[:0]
	for _, seed := range s.dirtyLinks {
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
						if e := (linkEntry{s.LinkCapacity(fl), fl}); single.id < 0 || linkLess(e, single) {
							single = e
						}
					}
				}
				if single.id >= 0 {
					s.lheap.add(single.id, single.share)
				}
			}
		}
		if len(s.compFlows) > flowLo {
			s.fillComponent(s.compFlows[flowLo:])
		}
	}
}

// reachLink is the BFS's first visit of l in this recompute: it queues
// l, starts its fill accumulators from the full capacity, and adds it to
// the bottleneck heap when more than one flow shares it (single-flow
// links are added per flow, see "Candidate links" above).
func (s *Sim) reachLink(l topology.LinkID) {
	s.linkSeen[l] = s.epoch
	s.linkUsed = append(s.linkUsed, l)
	c, n := s.LinkCapacity(l), int32(len(s.linkFlows[l]))
	s.residual[l] = c
	s.unfrozen[l] = n
	if n > 1 {
		s.lheap.add(l, c/float64(n))
	}
}

// fillComponent runs progressive filling over one component, whose
// links the BFS has just reached and added to the heap, bottleneck by
// bottleneck, writing results to s.newRate and each flow's freeze
// record. The component's flows are exactly its links' members, so the
// fill is self-contained.
func (s *Sim) fillComponent(flows []int32) {
	s.lheap.heapify()
	remaining := len(flows)
	level := recKey{linkEntry{math.Inf(-1), -1}, 0}
	for remaining > 0 {
		bottleneck, best, ok := s.lheap.popMin()
		if !ok {
			// Unreachable: every unfrozen flow keeps a live link in the heap.
			for _, fid := range flows {
				if s.newRate[fid] < 0 {
					s.newRate[fid] = 0
					s.recLink[fid] = -1
				}
			}
			break
		}
		if s.unfrozen[bottleneck] == 0 {
			continue // drained: its flows froze at other bottlenecks
		}
		// A live pop below the level is a dip (see the header): its
		// records sit after the level's pop, in dip order.
		if key := (linkEntry{best, bottleneck}); linkLess(key, level.linkEntry) {
			level.seq++
		} else {
			level = recKey{key, 0}
		}
		if best < 0 {
			best = 0
		}
		// Freeze every unfrozen flow crossing the bottleneck. Its
		// unfrozen count reaches zero here, so each membership list is
		// consumed at most once. The BFS reached every link of the
		// component's flows, so freeze subtracts from all of them.
		for _, fid := range s.linkFlows[bottleneck] {
			if s.newRate[fid] >= 0 {
				continue
			}
			s.recLink[fid], s.recAt[fid] = bottleneck, level
			s.freeze(fid, best, bottleneck)
			remaining--
		}
	}
}

// maxTaintShare bounds a differential fill's work: once the tainted
// links' memberships exceed this fraction of all memberships (1/n), the
// fill gives up and the component fill runs instead.
const maxTaintShare = 2

// recKey is a freeze's place in its fill's pop order: the pop's key,
// or for a dip the last level pop's key and the dip's rank after it.
type recKey struct {
	linkEntry
	seq int32
}

// same reports whether x and y are the same place, bit for bit. A
// link pop's place is its key, so a flow freezing in its recorded place
// freezes at its recorded rate and bottleneck too.
func (x recKey) same(y recKey) bool {
	return fpcmp.SameBits(x.share, y.share) && x.id == y.id && x.seq == y.seq
}

func recKeyLess(x, y recKey) bool {
	if linkLess(x.linkEntry, y.linkEntry) {
		return true
	}
	if linkLess(y.linkEntry, x.linkEntry) {
		return false
	}
	return x.seq < y.seq
}

// diffScratch is the differential fill's working state.
type diffScratch struct {
	records recordHeap    // record freezes of pending flows, by place
	replay  []replayEntry // taint's scratch: member freezes to replay
	pending int           // touched flows not yet frozen
	work    int           // memberships of the links tainted so far
	limit   int           // work past which the fill gives up
}

// replayEntry is one subtraction taint replays.
type replayEntry struct {
	at   recKey
	rate float64
}

// fillDifferential refills only the links the changes since the last
// recompute taint (see the header), writing the rates of the flows it
// touches to s.newRate and listing those flows in s.compFlows. It
// reports false, having installed nothing, when it cannot vouch for an
// exact result: a touched flow lacks the record it needs, a tainted
// link's pop falls below the level, or the taint outgrows
// maxTaintShare. The caller then refills the dirty seeds' components
// from scratch.
func (s *Sim) fillDifferential() bool {
	s.epoch++
	s.compFlows = s.compFlows[:0]
	s.lheap.reset()
	d := &s.diff
	d.records.reset()
	d.pending = 0
	d.work, d.limit = 0, s.memberships/maxTaintShare
	for _, l := range s.dirtyLinks {
		s.linkSeen[l] = s.epoch
	}
	level := recKey{linkEntry{math.Inf(-1), -1}, 0}
	for _, l := range s.dirtyLinks {
		members := s.linkFlows[l]
		if d.work += len(members); d.work > d.limit {
			return false
		}
		s.residual[l], s.unfrozen[l] = s.LinkCapacity(l), int32(len(members))
		if len(members) > 0 {
			s.lheap.push(l, s.LinkCapacity(l)/float64(len(members)))
		}
		for _, fid := range members {
			if s.seen[fid] != s.epoch && !s.touch(fid, level) {
				return false
			}
		}
	}
	for d.pending > 0 {
		// The next event is the lesser head; a link wins a tie with a
		// record of the same key, so a record whose bottleneck pops at
		// its recorded key finds its flow already frozen.
		if len(s.lheap.a) > 0 && (len(d.records.a) == 0 || !linkLess(d.records.a[0].at.linkEntry, s.lheap.a[0])) {
			l, share, _ := s.lheap.popMin()
			if s.unfrozen[l] == 0 {
				continue // drained
			}
			key := linkEntry{share, l}
			if linkLess(key, level.linkEntry) {
				return false // a dip among tainted links
			}
			level = recKey{key, 0}
			if !s.freezeLink(level) {
				return false
			}
			continue
		}
		if len(d.records.a) == 0 {
			return false // unreachable: a pending flow keeps a live link or a record
		}
		e := d.records.pop()
		if s.newRate[e.flow] >= 0 {
			continue
		}
		if s.linkSeen[s.recLink[e.flow]] == s.epoch {
			// The record's bottleneck is tainted and did not freeze the
			// flow in its recorded place, so the flow freezes later than
			// its record says: from here on its links differ.
			if !s.taintLinks(e.flow, e.at) {
				return false
			}
			continue
		}
		if recKeyLess(e.at, level) {
			return false // unreachable: records pop in place order
		}
		level = e.at
		s.freeze(e.flow, e.rate, s.recLink[e.flow])
		d.pending--
	}
	return true
}

// freezeLink pops tainted link at.id at its live key: every member
// still unfrozen freezes at at.share. A member whose record changes
// first taints all its links at this level, so that they take this
// pop's subtractions too.
func (s *Sim) freezeLink(at recKey) bool {
	members := s.linkFlows[at.id]
	for _, fid := range members {
		if s.newRate[fid] >= 0 || s.recAt[fid].same(at) {
			continue // frozen, or freezing as recorded
		}
		if !s.taintLinks(fid, at) {
			return false
		}
	}
	for _, fid := range members {
		if s.newRate[fid] < 0 {
			s.recLink[fid], s.recAt[fid] = at.id, at
			s.freeze(fid, at.share, at.id)
			s.diff.pending--
		}
	}
	return true
}

// freeze fixes an unfrozen flow's rate and subtracts it from its links
// in this fill: all of them in a component fill, the tainted ones in a
// differential fill, where untainted links replay the same subtraction
// from the record.
func (s *Sim) freeze(fid int32, rate float64, bottleneck topology.LinkID) {
	s.newRate[fid] = rate
	for _, l := range s.flowAt(int(fid)).links {
		if s.linkSeen[l] != s.epoch {
			continue
		}
		s.residual[l] -= rate
		if s.residual[l] < 0 {
			s.residual[l] = 0
		}
		s.unfrozen[l]--
		if l != bottleneck && s.unfrozen[l] > 0 {
			s.lheap.update(l, s.residual[l]/float64(s.unfrozen[l]))
		}
	}
}

// taintLinks taints every untainted link of fid at level.
func (s *Sim) taintLinks(fid int32, level recKey) bool {
	for _, l := range s.flowAt(int(fid)).links {
		if s.linkSeen[l] != s.epoch && !s.taint(l, level) {
			return false
		}
	}
	return true
}

// taint brings untainted link l into the fill just before the event at
// level. Until now every member froze as recorded, so the members
// frozen so far are exactly those whose record lies below level, and
// replaying their rates in record order rebuilds the residual bit for
// bit.
func (s *Sim) taint(l topology.LinkID, level recKey) bool {
	s.linkSeen[l] = s.epoch
	d := &s.diff
	members := s.linkFlows[l]
	if d.work += len(members); d.work > d.limit {
		return false
	}
	d.replay = d.replay[:0]
	var unfrozen int32
	for _, fid := range members {
		if s.seen[fid] != s.epoch && !s.touch(fid, level) {
			return false
		}
		if r := s.newRate[fid]; r >= 0 {
			d.replay = append(d.replay, replayEntry{s.recAt[fid], r})
		} else {
			unfrozen++
		}
	}
	slices.SortFunc(d.replay, func(x, y replayEntry) int {
		if recKeyLess(x.at, y.at) {
			return -1
		}
		if recKeyLess(y.at, x.at) {
			return 1
		}
		return 0
	})
	residual := s.LinkCapacity(l)
	for _, e := range d.replay {
		if residual -= e.rate; residual < 0 {
			residual = 0
		}
	}
	s.residual[l], s.unfrozen[l] = residual, unfrozen
	if unfrozen > 0 {
		key := linkEntry{residual / float64(unfrozen), l}
		if !linkLess(level.linkEntry, key) {
			return false // l would pop at once, below the level
		}
		s.lheap.push(l, key.share)
	}
	return true
}

// touch brings fid, a member of a link being tainted at level, into the
// fill. A flow whose record lies below level froze there already; any
// other is pending, and its record goes in the record heap while it
// crosses an untainted link. It reports false when a pending flow
// crossing an untainted link has no record.
func (s *Sim) touch(fid int32, level recKey) bool {
	s.seen[fid] = s.epoch
	recorded := s.recLink[fid] >= 0
	if recorded && recKeyLess(s.recAt[fid], level) {
		return true // newRate holds the recorded rate
	}
	for _, l := range s.flowAt(int(fid)).links {
		if s.linkSeen[l] != s.epoch {
			if !recorded {
				return false
			}
			s.diff.records.push(recordEntry{s.recAt[fid], fid, s.newRate[fid]})
			break
		}
	}
	s.newRate[fid] = -1
	s.diff.pending++
	s.compFlows = append(s.compFlows, fid)
	return true
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
	s.done.Rekey(s.doneH[id], s.finishAt[id], int64(id))
}

// clearDirtyLinks drops pending seeds without recomputing (no active
// flows can depend on them).
func (s *Sim) clearDirtyLinks() {
	for _, l := range s.dirtyLinks {
		s.linkDirty[l] = false
	}
	s.dirtyLinks = s.dirtyLinks[:0]
}
