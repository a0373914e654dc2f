package flowsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dard/internal/evq"
	"dard/internal/sched"
	"dard/internal/snap"
	"dard/internal/topology"
)

// Checkpoint/restore for the flow-level engine.
//
// A snapshot is taken at a paused event boundary (see RunContext): rates
// are freshly recomputed, the dirty-link seeds are drained, and no event
// is half-dispatched. At such a boundary the engine's observable state
// is exactly:
//
//   - the clock, event counter, and RNG stream position,
//   - every arrived flow's identity and progress (the SoA quadruple
//     rate/remaining/syncAt/finishAt for active flows; the final
//     timestamps for departed ones),
//   - the active list IN ORDER (probe() accumulates per-link load by
//     iterating it, and float addition is order-sensitive),
//   - link failure state, control-byte and elephant accounting,
//   - the pending timers' (at, seq) keys and rebuild descriptors,
//   - the controller's private state.
//
// The arrival source is not in the list: it is a pure function of the
// Config, so restore replays it to the arrived count instead, and the
// flow records double as the check that it was built the same way.
// Everything else is reconstructible: per-link membership lists are
// rebuilt by re-attaching active flows — maxmin.go's header proves
// membership ORDER cannot affect the arithmetic — and the completion
// and timer queues are refilled from their total-order keys (finishAt
// and flow ID; at and seq), so their internal layout is observably
// irrelevant. Restore therefore replays attach/push in a canonical
// order and still reproduces the exact floating-point op sequence of
// the uninterrupted run; the facade's checkpoint equivalence test pins
// byte-identical reports for every scheduler.

// SnapVersion is the engine snapshot format version. Version 2 dropped
// the arrival-source section: restore replays the source instead.
const SnapVersion uint16 = 2

// MaxRandDraws caps the RNG draw count a snapshot may carry: Restore
// replays the stream draw by draw, about 4 ns each, so a forged header
// costs at most about 70 ms. The largest count any checkpoint in this
// repository reaches is 298 (a DARD run of the facade's checkpoint
// tests; perfbench serve-jobs' reach 6), and a pVLB run draws about
// once per flow and re-pick, so the cap leaves room for runs four
// orders of magnitude longer. Snapshot refuses a run past the cap
// rather than write a checkpoint Restore would refuse.
const MaxRandDraws = 1 << 24

// ErrRandDraws marks a snapshot whose RNG draw count exceeds
// MaxRandDraws.
var ErrRandDraws = errors.New("flowsim: RNG draw count above MaxRandDraws")

// flowRecordMin is the smallest encoded flow record: an inactive
// flow's endpoints, size, arrival, finish, path index, path length and
// flags.
const flowRecordMin = 5*8 + 2*4 + 1

// ErrPaused is returned by RunContext when a pause was requested. The
// run's state is intact: Snapshot it, call RunContext again, or both.
var ErrPaused = errors.New("flowsim: run paused")

// ErrUnsnapshottable marks run states Snapshot cannot serialize, e.g. a
// pending timer scheduled without a checkpoint descriptor.
var ErrUnsnapshottable = errors.New("flowsim: state not snapshottable")

// Engine-owned timer tags, below sched.TagControllerBase. Tag 0 marks a
// plain After timer, which has no descriptor and blocks Snapshot while
// pending.
const (
	tagLinkEvent uint8 = 1 // A = link ID, B = 1 for failure, 0 for repair
	tagClassify  uint8 = 2 // A = flow ID
)

func linkEventRef(ev topology.LinkEvent) sched.TimerRef {
	b := int64(0)
	if ev.Down {
		b = 1
	}
	return sched.TimerRef{Tag: tagLinkEvent, A: int64(ev.Link), B: b}
}

func classifyRef(flowID int) sched.TimerRef {
	return sched.TimerRef{Tag: tagClassify, A: int64(flowID)}
}

// SnapshotController is implemented by policies that support
// checkpointing. Stateless policies (ECMP, static) need not implement
// it; any policy that keeps per-run state or schedules timers must, or
// snapshots of its runs fail (pending undescribed timers) or silently
// lose state on restore. The host passed in is the restoring Sim.
type SnapshotController interface {
	sched.Policy
	// SnapshotState encodes the policy's private state. Map-backed state
	// must be encoded in sorted key order so identical logical states
	// yield identical bytes.
	SnapshotState(h sched.Host, enc *snap.Encoder) error
	// RestoreState rebuilds the policy's state inside a restored Sim.
	// Flows are already restored; timers are not. RestoreState must not
	// schedule timers or draw from h.Rand — pending timers and the RNG
	// position are restored separately.
	RestoreState(h sched.Host, dec *snap.Decoder) error
	// RebuildTimer returns the callback for a pending policy timer
	// (ref.Tag >= sched.TagControllerBase). It runs after RestoreState.
	// A timer referencing state that no longer exists (e.g. a released
	// monitor's stale tick) must return a no-op, mirroring what the
	// original closure would have done.
	RebuildTimer(h sched.Host, ref sched.TimerRef) (func(), error)
}

// Section tags of the snapshot layout.
const (
	secHeader     = 'H'
	secFlows      = 'F'
	secActive     = 'A'
	secController = 'C'
	secTimers     = 'T'
)

// Flow flag bits in the flows section.
const (
	flagElephant = 1 << 0
	flagActive   = 1 << 1
)

// Snapshot serializes the run at a paused event boundary. Valid between
// RunContext calls: before the first, after ErrPaused, or after
// completion. The bytes are deterministic — the same logical state
// always encodes identically — and carry a CRC; Restore rejects
// corruption.
func (s *Sim) Snapshot() ([]byte, error) {
	if d := s.RandDraws(); d > MaxRandDraws {
		return nil, fmt.Errorf("%w: %w (the run has drawn %d)", ErrUnsnapshottable, ErrRandDraws, d)
	}
	enc := snap.NewEncoder(SnapVersion)

	enc.Mark(secHeader)
	enc.F64(s.now)
	enc.I64(s.timerSeq)
	enc.I64(s.events)
	enc.U64(s.RandDraws())
	s.Core.SnapshotCounters(enc)
	enc.F64(s.nextProbe)
	enc.Bool(s.started)
	enc.I64(s.cfg.Seed)
	enc.Bool(s.cfg.Reference)
	enc.Str(s.cfg.Controller.Name())
	s.Core.SnapshotLinks(enc)
	enc.I64(int64(s.arrived))

	enc.Mark(secFlows)
	for id := 0; id < s.arrived; id++ {
		f := s.flowAt(id)
		enc.I64(int64(f.Src))
		enc.I64(int64(f.Dst))
		enc.F64(f.SizeBits)
		enc.F64(f.Arrival)
		enc.F64(f.Finish)
		enc.U32(uint32(f.PathIdx))
		enc.U32(uint32(f.PathSwitches))
		var flags uint8
		if f.Elephant {
			flags |= flagElephant
		}
		if f.active {
			flags |= flagActive
		}
		enc.U8(flags)
		if f.active {
			enc.F64(s.rate[id])
			enc.F64(s.remaining[id])
			enc.F64(s.syncAt[id])
			enc.F64(s.finishAt[id])
		}
	}

	enc.Mark(secActive)
	enc.U32(uint32(len(s.active)))
	for _, f := range s.active {
		enc.U32(uint32(f.ID))
	}

	enc.Mark(secController)
	if sc, ok := s.cfg.Controller.(SnapshotController); ok {
		enc.Bool(true)
		if err := sc.SnapshotState(s, enc); err != nil {
			return nil, err
		}
	} else {
		enc.Bool(false)
	}

	enc.Mark(secTimers)
	pending := append([]evq.Item[timer](nil), s.timers.Items()...)
	// Canonical (at, seq) order: the key is total, and restore pushes in
	// this order, which leaves the rebuilt heap array sorted too — so
	// snapshot(restore(snapshot(x))) is byte-identical.
	sort.Slice(pending, func(i, j int) bool {
		//dardlint:floateq total-order comparator: exact compare, then integer sequence tie-break
		if pending[i].At != pending[j].At {
			return pending[i].At < pending[j].At
		}
		return pending[i].Seq < pending[j].Seq
	})
	enc.U32(uint32(len(pending)))
	for _, it := range pending {
		ref := it.Val.ref
		if ref.Tag == 0 {
			return nil, fmt.Errorf("%w: pending timer at t=%g scheduled without a checkpoint descriptor (Sim.After instead of Sim.AfterRef)", ErrUnsnapshottable, it.At)
		}
		enc.F64(it.At)
		enc.I64(it.Seq)
		enc.U8(ref.Tag)
		enc.I64(ref.A)
		enc.I64(ref.B)
	}

	return enc.Finish(), nil
}

// Restore rebuilds a paused run from a snapshot. cfg must be the same
// configuration the snapshotted run was built with (same network,
// controller construction, workload parameters, and seed) — the
// snapshot carries its position, not the scenario. The restored Sim
// continues via RunContext exactly where the original paused, and its
// final results are bit-identical to an uninterrupted run.
func Restore(cfg Config, data []byte) (*Sim, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.restore(data); err != nil {
		return nil, fmt.Errorf("flowsim: restore: %w", err)
	}
	return s, nil
}

func (s *Sim) restore(data []byte) error {
	dec, err := snap.NewDecoder(data)
	if err != nil {
		return err
	}
	if v := dec.Version(); v != SnapVersion {
		return fmt.Errorf("snapshot format version %d, this build reads %d", v, SnapVersion)
	}

	dec.Expect(secHeader)
	now := dec.F64()
	timerSeq := dec.I64()
	events := dec.I64()
	rngDraws := dec.U64()
	s.Core.RestoreCounters(dec)
	nextProbe := dec.F64()
	started := dec.Bool()
	seed := dec.I64()
	reference := dec.Bool()
	ctlName := dec.Str()
	if err := s.Core.RestoreLinks(dec); err != nil {
		return err
	}
	arrived := int(dec.I64())
	if err := dec.Err(); err != nil {
		return err
	}
	if seed != s.cfg.Seed {
		return fmt.Errorf("snapshot seed %d does not match config seed %d", seed, s.cfg.Seed)
	}
	if reference != s.cfg.Reference {
		return fmt.Errorf("snapshot engine (reference=%v) does not match config", reference)
	}
	if ctlName != s.cfg.Controller.Name() {
		return fmt.Errorf("snapshot controller %q does not match config controller %q", ctlName, s.cfg.Controller.Name())
	}
	if rngDraws > MaxRandDraws {
		return fmt.Errorf("%w: snapshot records %d draws, above the cap of %d", ErrRandDraws, rngDraws, MaxRandDraws)
	}
	// Every flow record takes at least flowRecordMin bytes, so the blob
	// bounds the count before the flow tables grow to it.
	if arrived < 0 || arrived > dec.Remaining()/flowRecordMin {
		return fmt.Errorf("snapshot arrived count %d out of range for %d bytes of records", arrived, dec.Remaining())
	}
	s.now = now
	s.timerSeq = timerSeq
	s.events = events
	s.nextProbe = nextProbe
	s.ReplayRand(rngDraws)

	// The arrival source is rebuilt from the Config: replay the arrived
	// flows through it, and require each to be the flow the snapshot
	// recorded, which is also what validates the records' endpoints.
	dec.Expect(secFlows)
	s.growFlows(arrived)
	s.arrived = arrived
	hosts := s.Topo().Hosts()
	activeFlagged := 0
	prev := 0.0
	for id := 0; id < arrived; id++ {
		src := topology.NodeID(dec.I64())
		dst := topology.NodeID(dec.I64())
		sizeBits := dec.F64()
		arrival := dec.F64()
		finish := dec.F64()
		pathIdx := int(dec.U32())
		pathSwitches := int(dec.U32())
		flags := dec.U8()
		if err := dec.Err(); err != nil {
			return err
		}
		wf, ok := s.arrivals.Next()
		if !ok {
			return fmt.Errorf("snapshot records %d arrivals, the workload ends after %d", arrived, id)
		}
		if err := wf.Check(id, len(hosts), prev); err != nil {
			return err
		}
		prev = wf.Arrival
		if src != hosts[wf.Src] || dst != hosts[wf.Dst] ||
			math.Float64bits(sizeBits) != math.Float64bits(wf.SizeBits) ||
			math.Float64bits(arrival) != math.Float64bits(wf.Arrival) {
			return fmt.Errorf("snapshot flow %d (node %d -> %d, %g bits at %g) is not the workload's (node %d -> %d, %g bits at %g)",
				id, src, dst, sizeBits, arrival, hosts[wf.Src], hosts[wf.Dst], wf.SizeBits, wf.Arrival)
		}
		f := s.flowAt(id)
		*f = Flow{
			Flow: sched.Flow{
				ID: id, Src: src, Dst: dst,
				SrcToR: s.Topo().ToROf(src), DstToR: s.Topo().ToROf(dst),
			},
			SizeBits:     sizeBits,
			PathIdx:      pathIdx,
			Arrival:      arrival,
			Finish:       finish,
			PathSwitches: pathSwitches,
			Elephant:     flags&flagElephant != 0,
			sim:          s,
			active:       flags&flagActive != 0,
			links:        f.links[:0],
			pos:          f.pos[:0],
		}
		s.flows[id] = f
		s.activeIdx[id] = -1
		if f.active {
			activeFlagged++
			s.rate[id] = dec.F64()
			s.remaining[id] = dec.F64()
			s.syncAt[id] = dec.F64()
			s.finishAt[id] = dec.F64()
		} else {
			s.rate[id] = 0
			s.remaining[id] = 0
			s.syncAt[id] = finish
			s.finishAt[id] = 0
		}
	}

	// Re-attach active flows in the snapshotted active order. Membership
	// list order is arithmetic-free (maxmin.go), but the active list
	// itself is iterated by probe()'s float accumulation, so its order
	// is part of the state.
	dec.Expect(secActive)
	nActive := dec.Count(4)
	if dec.Err() == nil && nActive != activeFlagged {
		return fmt.Errorf("snapshot active list has %d entries, flow flags mark %d", nActive, activeFlagged)
	}
	for i := 0; i < nActive; i++ {
		id := int(dec.U32())
		if err := dec.Err(); err != nil {
			return err
		}
		if id < 0 || id >= arrived {
			return fmt.Errorf("snapshot active flow %d out of range", id)
		}
		f := s.flows[id]
		if !f.active || s.activeIdx[id] != -1 {
			return fmt.Errorf("snapshot active list entry %d inconsistent", id)
		}
		ps := s.PathSet(f.SrcToR, f.DstToR)
		if f.PathIdx < 0 || f.PathIdx >= ps.Len() {
			return fmt.Errorf("snapshot flow %d path index %d out of range [0,%d)", id, f.PathIdx, ps.Len())
		}
		s.buildRoute(f, ps, f.PathIdx)
		s.attachLinks(f)
		s.activeIdx[id] = int32(len(s.active))
		s.active = append(s.active, f)
		s.doneH[id] = s.done.PushHandle(s.finishAt[id], int64(id), struct{}{})
	}
	// Attaching seeded dirty marks; drop them — the snapshot was taken
	// at a recomputed boundary and the SoA rates above are authoritative.
	s.clearDirtyLinks()
	s.ratesDirty = false
	for _, f := range s.active {
		if f.Elephant {
			s.CountElephant(f.links, +1)
		}
	}

	dec.Expect(secController)
	hasCtl := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	sc, implements := s.cfg.Controller.(SnapshotController)
	if hasCtl != implements {
		return fmt.Errorf("snapshot controller state presence (%v) does not match controller %q", hasCtl, s.cfg.Controller.Name())
	}
	if hasCtl {
		if err := sc.RestoreState(s, dec); err != nil {
			return err
		}
	}

	dec.Expect(secTimers)
	nTimers := dec.Count(8*4 + 1)
	for i := 0; i < nTimers; i++ {
		at := dec.F64()
		seq := dec.I64()
		ref := sched.TimerRef{Tag: dec.U8(), A: dec.I64(), B: dec.I64()}
		if err := dec.Err(); err != nil {
			return err
		}
		fn, err := s.rebuildTimerFn(ref)
		if err != nil {
			return err
		}
		s.timers.Push(at, seq, timer{ref: ref, fn: fn})
	}

	if err := dec.Done(); err != nil {
		return err
	}
	s.started = started
	return nil
}

// rebuildTimerFn resolves a TimerRef back into a callback.
func (s *Sim) rebuildTimerFn(ref sched.TimerRef) (func(), error) {
	switch ref.Tag {
	case tagLinkEvent:
		l := topology.LinkID(ref.A)
		if l < 0 || int(l) >= s.Topo().Graph().NumLinks() {
			return nil, fmt.Errorf("snapshot link-event timer references link %d out of range", ref.A)
		}
		down := ref.B != 0
		return func() { s.SetLinkDown(l, down) }, nil
	case tagClassify:
		f := s.Flow(int(ref.A))
		if f == nil {
			return nil, fmt.Errorf("snapshot classify timer references unknown flow %d", ref.A)
		}
		return func() {
			if f.active {
				s.classifyElephant(f)
			}
		}, nil
	}
	if ref.Tag >= sched.TagControllerBase {
		sc, ok := s.cfg.Controller.(SnapshotController)
		if !ok {
			return nil, fmt.Errorf("snapshot has controller timer tag %d but controller %q cannot rebuild timers", ref.Tag, s.cfg.Controller.Name())
		}
		return sc.RebuildTimer(s, ref)
	}
	return nil, fmt.Errorf("snapshot timer tag %d unknown", ref.Tag)
}
