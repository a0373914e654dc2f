package flowsim

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"dard/internal/evq"
	"dard/internal/fpcmp"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// DefaultElephantAge is the detection threshold: a flow older than this is
// an elephant (§3.1's Elephant Flow Detector).
const DefaultElephantAge = 1.0

// Config parameterizes a simulation run.
type Config struct {
	// Net is the topology to simulate on.
	Net topology.Network
	// Controller is the flow scheduling policy. The engine notifies it of
	// flow lifecycle events if it implements sched.Observer, and calls
	// its Start once before the first event if it implements Starter.
	Controller sched.Policy
	// Arrivals is the workload (nil: no flows), pulled one flow at a
	// time as the run reaches it; Run checks each flow before it takes
	// it. A source may be unbounded: such a run ends at MaxTime with
	// in-flight flows reported unfinished.
	Arrivals workload.Source
	// Seed drives every random choice the controller makes through
	// Sim.Rand, making runs reproducible.
	Seed int64
	// ElephantAge is the elephant detection threshold in seconds. Zero
	// means DefaultElephantAge; negative disables classification.
	ElephantAge float64
	// MaxTime aborts the run if simulated time exceeds it. Zero means
	// 1e6 seconds.
	MaxTime float64
	// LinkEvents schedules link failures and repairs.
	LinkEvents []topology.LinkEvent
	// Tracer receives structured events (flow lifecycle, path switches,
	// link failures, control messages) and probe samples. Nil disables
	// tracing.
	Tracer trace.Tracer
	// ProbeInterval spaces utilization and rate samples, in seconds.
	// Probes piggyback on event boundaries rather than scheduling timers
	// of their own, so enabling them cannot perturb the simulation.
	// Zero or negative disables probing.
	ProbeInterval float64
	// Reference selects the retained reference scheduler (reference.go):
	// rebuild-everything recomputes and linear scans instead of the
	// incremental engine. Reports must be byte-identical either way —
	// the equivalence tests diff the two on every seed scenario. Keep it
	// off outside those tests: it restores the O(events x flows)
	// behavior the incremental engine exists to avoid.
	Reference bool
}

// Sim is one simulation run. It implements sched.Host: policies receive
// it in their callbacks to inspect state, reroute flows, and schedule
// timers.
//
// The directive below registers Sim with the snapfield analyzer: every
// field must be referenced by the snapshot encoder or restore decoder
// (directly or through their callees), or carry a justified
// //dardlint:snapfield suppression explaining why a checkpoint can
// omit it. Adding a field without deciding its checkpoint story is a
// build error in CI, not a silent restore divergence.
//
//dardsnap:fields encoder=Sim.Snapshot decoder=Sim.restore
type Sim struct {
	sched.Core // switch state and accounting; its counters ride the snapshot header

	cfg Config
	// obs is the Controller's sched.Observer side, resolved once by New
	// (nil when the policy observes nothing).
	obs sched.Observer //dardlint:snapfield derived from Config.Controller by New; a restored run re-derives it

	now float64
	// slabs hold all Flow structs in fixed-size chunks indexed by
	// workload flow ID (flowAt). Chunking keeps every *Flow stable while
	// the population grows one arrival at a time: a full chunk is never
	// reallocated, only new chunks are appended.
	slabs    [][]Flow
	flows    []*Flow //dardlint:snapfield by-workload-ID index into slabs, one entry per arrived flow; restore rebuilds it flow by flow
	active   []*Flow
	arrived  int // flows consumed from Config.Arrivals == next expected ID
	timers   evq.Queue[timer]
	timerSeq int64

	// flowHint is the capacity the per-flow arrays start at: the
	// source's size hint, if it has one, capped at maxFlowHint.
	flowHint int //dardlint:snapfield derived from Config.Arrivals by New

	// started latches the one-time Run setup (link-event timers,
	// Starter.Start) so a paused run can re-enter Run without
	// re-scheduling them.
	started bool
	// events counts dispatched events (completions, arrivals, timers).
	events int64
	// pauseAt pauses the run once events reaches it (-1 disabled); the
	// deterministic checkpoint trigger. pauseReq is its asynchronous
	// sibling, settable from any goroutine.
	pauseAt  int64       //dardlint:snapfield run-control knob, not simulation state; the resuming caller re-arms it
	pauseReq atomic.Bool //dardlint:snapfield asynchronous pause request; a pending pause is moot once the run is parked

	ratesDirty bool //dardlint:snapfield snapshots are taken at a freshly recomputed boundary, so false on both sides by construction

	probeEvery float64 //dardlint:snapfield mirror of Config.ProbeInterval (0 when probing is off); set by New
	nextProbe  float64

	// Struct-of-arrays flow state, indexed by workload flow ID. The
	// recompute, completion, and probe paths touch only these and the
	// membership lists, never the cold Flow structs, so the hot loops
	// walk contiguous memory.
	rate      []float64    // current max-min allocation (bits/s)
	remaining []float64    // unsent bits, exact as of syncAt
	syncAt    []float64    // time remaining was last materialized
	finishAt  []float64    // projected completion; +Inf while rate <= 0
	newRate   []float64    //dardlint:snapfield recompute-derived: the rate of the flow's freeze record (<0 while a fill has it unfrozen); read only with a record, which a restored run starts without
	seen      []uint64     //dardlint:snapfield recompute-epoch marker for the component BFS; an epoch bump invalidates it wholesale
	activeIdx []int32      //dardlint:snapfield index in Sim.active (-1 once departed); restore's re-attach replay rebuilds it
	doneH     []evq.Handle //dardlint:snapfield names the flow's entry in done (stale once departed); restore's re-push assigns it

	// Incremental engine state (maxmin.go): per-link flow-membership
	// lists maintained on arrival/departure/path-switch, the dirty-link
	// seeds accumulated since the last recompute, the component-BFS
	// epoch marks, the flows of the current recompute, the bottleneck
	// heap, and the completion queue.
	linkFlows  [][]int32         //dardlint:snapfield rebuilt by restore's canonical re-attach replay; membership order is proven immaterial
	dirtyLinks []topology.LinkID //dardlint:snapfield drained at every snapshot boundary; empty on both sides
	linkDirty  []bool            //dardlint:snapfield mirrors dirtyLinks and is likewise empty at a boundary
	linkSeen   []uint64          //dardlint:snapfield recompute-epoch marks; an epoch bump invalidates them wholesale
	epoch      uint64            //dardlint:snapfield BFS epoch counter; only equality against linkSeen/seen is observable
	compFlows  []int32           //dardlint:snapfield recompute scratch; the flows of each component, in fill order
	lheap      *linkHeap         //dardlint:snapfield re-heapified from total-order keys; internal layout is observably irrelevant
	// done queues every active flow at (finishAt, flow ID); its minimum
	// is the next completion unless that key is +Inf (rate zero).
	done evq.Queue[struct{}] //dardlint:snapfield restore re-pushes the active flows at their total-order keys; internal layout is observably irrelevant

	// Freeze records (maxmin.go): the bottleneck and pop-order place
	// each flow's last fill froze it at (recLink -1: none; the rate is
	// newRate), the differential fill's scratch, and the membership
	// count that scales its give-up bound.
	recLink     []topology.LinkID //dardlint:snapfield recompute-derived: freeze record, rebuilt by the next fallback fill; a restored run starts with none
	recAt       []recKey          //dardlint:snapfield recompute-derived: freeze record, rebuilt by the next fallback fill; a restored run starts with none
	diff        diffScratch       //dardlint:snapfield recompute-derived scratch of the differential fill, reset at its start
	memberships int               //dardlint:snapfield recompute-derived: total length of linkFlows; restore's re-attach replay recounts it

	// diffFills and fullFills count recomputes by path; read only by
	// tests.
	diffFills int64 //dardlint:snapfield recompute-derived count of differential fills; read only by tests
	fullFills int64 //dardlint:snapfield recompute-derived count of fallback fills; read only by tests

	// Progressive-filling accumulators, shared by both schedulers.
	residual []float64         //dardlint:snapfield progressive-filling scratch, overwritten at the start of every fill
	unfrozen []int32           //dardlint:snapfield progressive-filling scratch, overwritten at the start of every fill
	linkUsed []topology.LinkID //dardlint:snapfield links of the current recompute (doubles as the BFS queue); scratch

	// Reference-engine scratch (reference.go): membership lists rebuilt
	// from scratch on every recompute, stamped per round.
	refFlows [][]int32 //dardlint:snapfield reference-engine scratch, rebuilt from scratch on every recompute
	refStamp []uint64  //dardlint:snapfield reference-engine scratch, rebuilt from scratch on every recompute
	stamp    uint64    //dardlint:snapfield reference-engine round stamp; only per-round equality is observable

	loadScratch []float64 //dardlint:snapfield probe() per-link load buffer, overwritten before every use
}

// New validates the configuration and prepares a run.
func New(cfg Config) (*Sim, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("flowsim: nil network")
	}
	if cfg.Controller == nil {
		return nil, fmt.Errorf("flowsim: nil controller")
	}
	if fpcmp.IsZero(cfg.ElephantAge) {
		cfg.ElephantAge = DefaultElephantAge
	}
	if fpcmp.IsZero(cfg.MaxTime) {
		cfg.MaxTime = 1e6
	}
	if err := sched.CheckLinkEvents(cfg.Net, cfg.LinkEvents); err != nil {
		return nil, fmt.Errorf("flowsim: %w", err)
	}
	if cfg.Arrivals == nil {
		cfg.Arrivals = workload.List(nil)
	}
	g := cfg.Net.Graph()
	s := &Sim{
		cfg:       cfg,
		pauseAt:   -1,
		residual:  make([]float64, g.NumLinks()),
		unfrozen:  make([]int32, g.NumLinks()),
		linkFlows: make([][]int32, g.NumLinks()),
		linkDirty: make([]bool, g.NumLinks()),
		linkSeen:  make([]uint64, g.NumLinks()),
		lheap:     newLinkHeap(g.NumLinks()),
	}
	s.Core = sched.NewCore(cfg.Net, cfg.Seed, cfg.Tracer, s.Now)
	s.obs, _ = cfg.Controller.(sched.Observer)
	if src, ok := cfg.Arrivals.(sizedSource); ok {
		s.flowHint = min(src.SizeHint(), maxFlowHint)
	}
	if cfg.Reference {
		s.refFlows = make([][]int32, g.NumLinks())
		s.refStamp = make([]uint64, g.NumLinks())
	}
	if s.Tracer().Enabled() && cfg.ProbeInterval > 0 {
		s.probeEvery = cfg.ProbeInterval
		s.nextProbe = cfg.ProbeInterval
	}
	return s, nil
}

// Flow slab chunking: flowAt(id) resolves a flow ID to its stable slot.
// Chunks are never reallocated once created, so *Flow pointers held by
// the active set, controllers, and timer closures survive open-ended
// population growth; only the chunk index grows.
const (
	slabShift = 10
	slabChunk = 1 << slabShift
	slabMask  = slabChunk - 1
)

// flowAt returns the slab slot of a flow ID (which must be < the grown
// population).
func (s *Sim) flowAt(id int) *Flow { return &s.slabs[id>>slabShift][id&slabMask] }

// sizedSource is a workload source that knows about how many flows it
// yields in all (workload.List, a bounded workload.OpenPoisson). A
// wrong hint costs memory or a regrowth, never a different run.
type sizedSource interface {
	SizeHint() int
}

// minFlowCap is the least capacity of the per-flow arrays, and
// maxFlowHint the most a source's size hint sets them to.
const (
	minFlowCap  = 64
	maxFlowHint = 1 << 16
)

// growFlows extends the slab and the struct-of-arrays state to hold at
// least n flows. The slab grows by whole chunks. The arrays share one
// capacity, decided here: it starts at the source's size hint, so a run
// of a sized source usually allocates them once, and when n outgrows it
// it at least doubles, so a run that pulls its flows one arrival at a
// time moves them O(log n) times in all.
func (s *Sim) growFlows(n int) {
	for len(s.slabs)*slabChunk < n {
		s.slabs = append(s.slabs, make([]Flow, slabChunk))
	}
	old := len(s.flows)
	if n <= old {
		return
	}
	c := cap(s.flows)
	if n > c {
		c = max(n, 2*c, minFlowCap, s.flowHint)
	}
	s.flows = extend(s.flows, n, c)
	s.rate = extend(s.rate, n, c)
	s.remaining = extend(s.remaining, n, c)
	s.syncAt = extend(s.syncAt, n, c)
	s.finishAt = extend(s.finishAt, n, c)
	s.newRate = extend(s.newRate, n, c)
	s.recAt = extend(s.recAt, n, c)
	s.recLink = extend(s.recLink, n, c)
	for i := old; i < n; i++ {
		s.recLink[i] = -1 // no record
	}
	s.seen = extend(s.seen, n, c)
	s.activeIdx = extend(s.activeIdx, n, c)
	s.doneH = extend(s.doneH, n, c)
}

// extend returns x lengthened to n with zeroed new entries, moved to a
// new array of capacity c when n exceeds its own.
func extend[T any](x []T, n, c int) []T {
	if n > cap(x) {
		y := make([]T, n, c)
		copy(y, x)
		return y
	}
	old := len(x)
	x = x[:n]
	clear(x[old:])
	return x
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Active returns the currently active flows. The slice is owned by the
// simulator and only valid until the next event.
func (s *Sim) Active() []*Flow { return s.active }

// Flow returns the flow with the given workload ID (nil if not yet
// arrived).
func (s *Sim) Flow(id int) *Flow {
	if id < 0 || id >= len(s.flows) {
		return nil
	}
	return s.flows[id]
}

// FlowByID returns the identity of the flow with the given ID
// (sched.Host); ok is false before its arrival.
func (s *Sim) FlowByID(id int) (sched.Flow, bool) {
	f := s.Flow(id)
	if f == nil {
		return sched.Flow{}, false
	}
	return f.Flow, true
}

// FlowPath returns the path index of the flow with the given ID.
func (s *Sim) FlowPath(id int) int { return s.flows[id].PathIdx }

// FlowActive reports whether the flow with the given ID is still
// transferring (false before its arrival).
func (s *Sim) FlowActive(id int) bool {
	f := s.Flow(id)
	return f != nil && f.active
}

// SetFlowPath is SetPath by flow ID.
func (s *Sim) SetFlowPath(id, pathIdx int) error {
	f := s.Flow(id)
	if f == nil {
		return fmt.Errorf("flowsim: no flow %d", id)
	}
	return s.SetPath(f, pathIdx)
}

// After schedules fn to run d seconds from now. Timers fire in timestamp
// order (FIFO among equal timestamps) and are dropped once the workload
// has drained. Timers are queued by value: the queue allocates only
// when it grows.
//
// Timers scheduled through After carry no checkpoint descriptor:
// Snapshot fails while one is pending. Control loops that must survive
// a checkpoint schedule through AfterRef instead.
func (s *Sim) After(d float64, fn func()) {
	s.AfterRef(d, sched.TimerRef{}, fn)
}

// AfterRef schedules fn like After and records a sched.TimerRef
// describing how to rebuild the closure on restore (see
// SnapshotController).
func (s *Sim) AfterRef(d float64, ref sched.TimerRef, fn func()) {
	if d < 0 {
		d = 0
	}
	s.timerSeq++
	s.timers.Push(s.now+d, s.timerSeq, timer{ref: ref, fn: fn})
}

// SetPath moves a flow to another path in its equal-cost set. A change to
// a different index counts as one path switch; re-selecting the current
// path is a no-op.
func (s *Sim) SetPath(f *Flow, pathIdx int) error {
	ps := s.PathSet(f.SrcToR, f.DstToR)
	if pathIdx < 0 || pathIdx >= ps.Len() {
		return fmt.Errorf("flowsim: path index %d out of range [0,%d)", pathIdx, ps.Len())
	}
	if pathIdx == f.PathIdx {
		return nil
	}
	old := f.PathIdx
	f.PathIdx = pathIdx
	elephant := f.Elephant && f.active
	if elephant {
		s.CountElephant(f.links, -1)
	}
	s.detachLinks(f)
	s.buildRoute(f, ps, pathIdx)
	s.attachLinks(f)
	if elephant {
		s.CountElephant(f.links, +1)
	}
	f.PathSwitches++
	s.markStateChanged()
	s.EmitPathSwitch(f.ID, old, pathIdx)
	return nil
}

// buildRoute fills f.links with f's route on path pathIdx, reusing the
// slice's capacity across re-routes: a warm re-route allocates nothing
// (pinned by TestBuildRouteAllocs).
func (s *Sim) buildRoute(f *Flow, ps topology.PathSet, pathIdx int) {
	f.links = s.AppendRoute(f.links[:0], f.Flow, ps, pathIdx)
}

// attachLinks adds f to the membership list of every link on its route
// and seeds the next recompute with those links.
func (s *Sim) attachLinks(f *Flow) {
	if cap(f.pos) < len(f.links) {
		f.pos = make([]int32, len(f.links))
	} else {
		f.pos = f.pos[:len(f.links)]
	}
	id := int32(f.ID)
	s.memberships += len(f.links)
	for i, l := range f.links {
		f.pos[i] = int32(len(s.linkFlows[l]))
		s.linkFlows[l] = append(s.linkFlows[l], id)
		s.markLinkDirty(l)
	}
}

// detachLinks removes f from its links' membership lists by swap-delete:
// f.pos makes each removal O(1), and the displaced flow's position
// entry is patched through its own (short) route slice.
func (s *Sim) detachLinks(f *Flow) {
	s.memberships -= len(f.links)
	for i, l := range f.links {
		lst := s.linkFlows[l]
		pos := f.pos[i]
		last := int32(len(lst) - 1)
		movedID := lst[last]
		lst[pos] = movedID
		s.linkFlows[l] = lst[:last]
		if moved := s.flowAt(int(movedID)); moved != f {
			for j, ml := range moved.links {
				if ml == l && moved.pos[j] == last {
					moved.pos[j] = pos
					break
				}
			}
		}
		s.markLinkDirty(l)
	}
}

// markLinkDirty seeds the next incremental recompute with a link whose
// capacity or membership changed. The reference scheduler recomputes
// everything and ignores seeds.
func (s *Sim) markLinkDirty(l topology.LinkID) {
	if s.cfg.Reference {
		return
	}
	if !s.linkDirty[l] {
		s.linkDirty[l] = true
		s.dirtyLinks = append(s.dirtyLinks, l)
	}
}

func (s *Sim) markStateChanged() {
	s.ratesDirty = true
}

// SetLinkDown fails or repairs a link immediately.
func (s *Sim) SetLinkDown(l topology.LinkID, down bool) {
	if !s.Core.SetLinkDown(l, down) {
		return
	}
	s.markLinkDirty(l)
	s.markStateChanged()
}

// Run executes the simulation until every flow completes or MaxTime is
// exceeded, then reports per-flow statistics.
//
// Time advances event to event with no per-flow work in between: each
// active flow carries a finishAt projection (syncAt + remaining/rate)
// that stays valid until its rate changes, so the next completion is the
// min of (finishAt, flow ID) — the completion queue's minimum, or a
// linear scan under the reference scheduler. remaining is materialized
// lazily, only when a recompute actually changes the flow's rate
// (applyRate).
func (s *Sim) Run() (*Results, error) { return s.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation and pausing. When ctx
// is canceled the run stops at an event boundary and returns the
// context's error. When a pause triggers (RequestPause or PauseAfter)
// the run returns ErrPaused with all state intact: the caller may
// Snapshot the run and/or call RunContext again to continue exactly
// where it stopped.
func (s *Sim) RunContext(ctx context.Context) (*Results, error) {
	// Fail fast on an already-canceled context; mid-run the check is
	// amortized to every 1024th event below.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("flowsim: canceled at t=%g: %w", s.now, err)
	}
	if !s.started {
		s.started = true
		for _, ev := range s.cfg.LinkEvents {
			ev := ev
			s.AfterRef(ev.At-s.now, linkEventRef(ev), func() { s.SetLinkDown(ev.Link, ev.Down) })
		}
		if st, ok := s.cfg.Controller.(Starter); ok {
			st.Start(s)
		}
	}
	for {
		next, hasPending := s.cfg.Arrivals.Peek()
		if !hasPending && len(s.active) == 0 {
			break
		}
		if s.ratesDirty {
			s.recomputeRates()
		}
		// Pause at a clean event boundary: rates recomputed, dirty-link
		// seeds drained, no event half-dispatched. This is the state
		// Snapshot serializes.
		if s.pauseReq.Load() || (s.pauseAt >= 0 && s.events >= s.pauseAt) {
			s.pauseReq.Store(false)
			s.pauseAt = -1
			return nil, ErrPaused
		}
		if s.events&1023 == 0 {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("flowsim: canceled at t=%g: %w", s.now, ctx.Err())
			default:
			}
		}

		// Earliest of: next completion, next arrival, next timer.
		const none = math.MaxFloat64
		tComplete, completing := none, (*Flow)(nil)
		if s.cfg.Reference {
			tComplete, completing = s.nextCompletionReference()
		} else if s.done.Len() > 0 {
			if m := s.done.Min(); m.At < none {
				tComplete, completing = m.At, s.flowAt(int(m.Seq))
			}
		}
		tArrival := none
		if hasPending {
			// Check the flow before its time is compared: a NaN arrival
			// matches no case of the dispatch below, and one before now
			// would move the clock back.
			if err := next.Check(s.arrived, len(s.Topo().Hosts()), s.now); err != nil {
				return nil, fmt.Errorf("flowsim: %w", err)
			}
			tArrival = next.Arrival
		}
		tTimer := none
		if s.timers.Len() > 0 {
			tTimer = s.timers.Min().At
		}

		t := math.Min(tComplete, math.Min(tArrival, tTimer))
		if fpcmp.Eq(t, none) {
			// Every remaining flow is rate-zero (stranded on failed
			// links) and no events are pending: end the run; the flows
			// are reported unfinished.
			break
		}
		if t > s.cfg.MaxTime {
			break
		}
		s.now = t

		switch {
		case tComplete <= tArrival && tComplete <= tTimer:
			s.complete(completing)
		case tArrival <= tTimer:
			wf, _ := s.cfg.Arrivals.Next()
			s.arrive(wf)
		default:
			s.timers.Pop().Val.fn()
		}
		s.events++

		// Probes piggyback on event boundaries: once an interval has
		// elapsed, sample at the first event at or past the boundary.
		// No timers are scheduled and no flow state is touched, so an
		// enabled tracer cannot change event order or the floating-point
		// remaining arithmetic — traced and untraced runs stay
		// bit-identical.
		if s.probeEvery > 0 && s.now >= s.nextProbe {
			s.probe()
		}
	}
	return s.collectResults(), nil
}

// RequestPause asks the run to stop at the next event boundary with
// ErrPaused. Safe to call from any goroutine; if the run is between
// RunContext calls the request is remembered and the next call pauses
// immediately.
func (s *Sim) RequestPause() { s.pauseReq.Store(true) }

// PauseAfter arranges a pause once n more events have been dispatched —
// the deterministic checkpoint trigger: the same n on the same scenario
// always pauses at the same event boundary.
func (s *Sim) PauseAfter(n int64) { s.pauseAt = s.events + n }

// Events returns the number of events dispatched so far.
func (s *Sim) Events() int64 { return s.events }

// probe samples per-link utilization and per-flow rates into the tracer.
func (s *Sim) probe() {
	if s.ratesDirty {
		s.recomputeRates()
	}
	g := s.Topo().Graph()
	if s.loadScratch == nil {
		s.loadScratch = make([]float64, g.NumLinks())
	}
	load := s.loadScratch
	for i := range load {
		load[i] = 0
	}
	for _, f := range s.active {
		r := s.rate[f.ID]
		for _, l := range f.links {
			load[l] += r
		}
	}
	for l := range load {
		capacity := g.Link(topology.LinkID(l)).Capacity
		s.Tracer().Sample(trace.MetricLinkUtil, int64(l), s.now, load[l]/capacity)
	}
	for _, f := range s.active {
		s.Tracer().Sample(trace.MetricFlowRate, int64(f.ID), s.now, s.rate[f.ID])
	}
	s.nextProbe = (math.Floor(s.now/s.probeEvery) + 1) * s.probeEvery
}

func (s *Sim) arrive(wf workload.Flow) {
	sf, ps, idx := s.Admit(s, s.cfg.Controller, wf)
	s.growFlows(wf.ID + 1)
	s.arrived = wf.ID + 1
	f := s.flowAt(wf.ID)
	*f = Flow{
		Flow:     sf,
		SizeBits: wf.SizeBits,
		PathIdx:  idx,
		Arrival:  s.now,
		Finish:   math.NaN(),
		sim:      s,
		active:   true,
		links:    f.links[:0], // keep any slab capacity from a prior run
		pos:      f.pos[:0],
	}
	s.rate[wf.ID] = 0
	s.remaining[wf.ID] = wf.SizeBits
	s.syncAt[wf.ID] = s.now
	s.finishAt[wf.ID] = math.Inf(1)
	s.activeIdx[wf.ID] = -1
	s.flows[wf.ID] = f
	s.buildRoute(f, ps, idx)
	s.attachLinks(f)
	s.activeIdx[wf.ID] = int32(len(s.active))
	s.active = append(s.active, f)
	s.doneH[wf.ID] = s.done.PushHandle(math.Inf(1), int64(wf.ID), struct{}{})
	s.markStateChanged()
	s.EmitFlowStart(f.Flow, f.SizeBits)

	// New turned a zero ElephantAge into the default, so classification
	// always waits on a timer.
	if s.cfg.ElephantAge >= 0 {
		s.AfterRef(s.cfg.ElephantAge, classifyRef(f.ID), func() {
			if f.active {
				s.classifyElephant(f)
			}
		})
	}
	if s.obs != nil {
		s.obs.Arrived(s, f.Flow)
	}
}

func (s *Sim) classifyElephant(f *Flow) {
	if f.Elephant {
		return
	}
	f.Elephant = true
	s.ElephantStarted(f.links)
	if s.obs != nil {
		s.obs.Elephant(s, f.Flow)
	}
}

func (s *Sim) complete(f *Flow) {
	if f.Elephant {
		s.ElephantEnded(f.links)
	}
	f.Finish = s.now
	s.remaining[f.ID] = 0
	s.syncAt[f.ID] = s.now
	f.active = false
	s.EmitFlowEnd(f.ID, f.PathIdx, f.SizeBits)
	s.detachLinks(f)
	// O(1) swap-delete from the active set via the flow's stored index.
	last := len(s.active) - 1
	moved := s.active[last]
	idx := s.activeIdx[f.ID]
	s.active[idx] = moved
	s.activeIdx[moved.ID] = idx
	s.active[last] = nil
	s.active = s.active[:last]
	s.activeIdx[f.ID] = -1
	s.done.Remove(s.doneH[f.ID])
	s.markStateChanged()
	if s.obs != nil {
		s.obs.Departed(s, f.Flow)
	}
}
