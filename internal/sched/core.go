package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dard/internal/snap"
	"dard/internal/topology"
	"dard/internal/trace"
)

// Core is the engine-independent half of Host and ctlmsg.StateSource,
// embedded by both engines (flowsim.Sim and psim.Runtime): the run's
// topology, seed, random source and tracer, the switch state DARD's
// monitors query (§2.4) — each link's effective capacity and elephant
// count — and the control-byte and elephant accounting. An engine adds
// its clock and timers, flow storage and routing.
//
// A route is a flow's full host-to-host link list (AppendRoute). The engine calls
// ElephantStarted when a flow becomes an elephant, ElephantEnded when an
// elephant completes, CountElephant(route, -1) and (newRoute, +1)
// around an active elephant's path switch, and SetLinkDown when a link
// fails or recovers. Those hooks feed the port-change list
// AppendChangedPorts drains, so a link's port state must change through
// them and nowhere else.
//
//dardsnap:fields encoder=Core.SnapshotCounters decoder=Core.RestoreCounters
type Core struct {
	topo   topology.Network //dardlint:snapfield configuration, not state; the restoring engine rebuilds its Core from the run's Config
	seed   int64            //dardlint:snapfield configuration; the flow engine checks it against its snapshot header itself
	rng    *rand.Rand       //dardlint:snapfield wraps the engine's source, whose stream position the engine checkpoints
	tracer trace.Tracer     //dardlint:snapfield never nil (Nop when tracing is off); the restored run injects its own sink
	now    func() float64   //dardlint:snapfield the engine's clock, wired by NewCore

	eleCounts []int32 //dardlint:snapfield derived from the active elephants' routes; the restoring engine recounts them through CountElephant
	// capacity is each link's effective capacity: the graph's nominal
	// bandwidth, 0 while the link is down. Graph.Validate rejects
	// non-positive nominal capacities, so 0 means down and nothing else.
	capacity []float64 //dardlint:snapfield the flow engine's snapshot header carries the failed links at their own offset, through SnapshotLinks and RestoreLinks

	// changed lists, each once, the links whose port state moved since
	// the last AppendChangedPorts, and marked flags them. Both stay nil
	// until the first drain, so a run nobody drains records nothing.
	changed []topology.LinkID //dardlint:snapfield change feed, not state: a restored run's first drain returns every link
	marked  []bool            //dardlint:snapfield change feed, not state: a restored run's first drain returns every link

	controlBytes  float64
	elephants     int
	peakElephants int
}

// NewCore builds the core of a run on net. seeded is the run's random
// source, which the engine seeds from seed, and now the engine's clock,
// read to timestamp trace events; a nil tracer disables tracing.
func NewCore(net topology.Network, seed int64, seeded rand.Source, tracer trace.Tracer, now func() float64) Core {
	g := net.Graph()
	capacity := make([]float64, g.NumLinks())
	for l := range capacity {
		capacity[l] = g.Link(topology.LinkID(l)).Capacity
	}
	return Core{
		topo:      net,
		seed:      seed,
		rng:       rand.New(seeded),
		tracer:    trace.OrNop(tracer),
		now:       now,
		eleCounts: make([]int32, len(capacity)),
		capacity:  capacity,
	}
}

// CheckLinkEvents is the link-event check both engines run when built:
// every event names a link of net and fires at a finite, non-negative
// time.
func CheckLinkEvents(net topology.Network, events []topology.LinkEvent) error {
	links := net.Graph().NumLinks()
	for _, ev := range events {
		if ev.Link < 0 || int(ev.Link) >= links {
			return fmt.Errorf("link event references link %d out of range", ev.Link)
		}
		if math.IsNaN(ev.At) || math.IsInf(ev.At, 0) || ev.At < 0 {
			return fmt.Errorf("link event at invalid time %g", ev.At)
		}
	}
	return nil
}

// Topo returns the topology (ctlmsg.StateSource).
func (c *Core) Topo() topology.Network { return c.topo }

// Seed returns the run's configured seed. Path policies hash it with the
// flow identity, so initial assignments match across policies and
// engines given the same seed — the paired-comparison property the
// evaluation relies on.
func (c *Core) Seed() int64 { return c.seed }

// Rand returns the run's deterministic random source.
func (c *Core) Rand() *rand.Rand { return c.rng }

// Tracer returns the run's tracer (never nil; Nop when tracing is off).
func (c *Core) Tracer() trace.Tracer { return c.tracer }

// PathSet returns the implicit equal-cost ToR-to-ToR path set of a
// flow. Obtaining and resolving it allocates nothing.
func (c *Core) PathSet(srcToR, dstToR topology.NodeID) topology.PathSet {
	return c.topo.PathSet(srcToR, dstToR)
}

// RecordControl accounts control-plane message bytes (probes, replies,
// controller updates) for the overhead comparison of Figure 15.
func (c *Core) RecordControl(bytes float64) {
	c.controlBytes += bytes
	c.emit(trace.KindControlMsg, -1, 0, 0, bytes)
}

// ControlBytes returns the control bytes recorded so far.
func (c *Core) ControlBytes() float64 { return c.controlBytes }

// ElephantsOnLink returns the number of active elephant flows currently
// traversing the link: the "flow_numbers" half of the switch state the
// paper's monitors query (§2.4.2).
func (c *Core) ElephantsOnLink(l topology.LinkID) int { return int(c.eleCounts[l]) }

// AppendChangedPorts drains the port-change feed (Host): it appends to
// dst, each once, every link whose elephant count or capacity changed
// since the last drain, and forgets them. The first drain appends every
// link, so its reader starts from a full read of the fabric; a run is
// drained by at most one reader, its DARD controller.
func (c *Core) AppendChangedPorts(dst []topology.LinkID) []topology.LinkID {
	if c.marked == nil {
		c.marked = make([]bool, len(c.eleCounts))
		dst = slices.Grow(dst, len(c.marked))
		for l := range c.marked {
			dst = append(dst, topology.LinkID(l))
		}
		return dst
	}
	dst = append(dst, c.changed...)
	for _, l := range c.changed {
		c.marked[l] = false
	}
	c.changed = c.changed[:0]
	return dst
}

// mark records that l's port state changed, once until the next drain.
func (c *Core) mark(l topology.LinkID) {
	if c.marked != nil && !c.marked[l] {
		c.marked[l] = true
		c.changed = append(c.changed, l)
	}
}

// PeakElephants returns the most elephants that were active at once (the
// x-axis of Figure 15).
func (c *Core) PeakElephants() int { return c.peakElephants }

// AppendRoute appends f's route on path pathIdx of ps, its path set, to
// dst: the source host's uplink, the ToR-to-ToR path and the destination
// host's downlink.
func (c *Core) AppendRoute(dst []topology.LinkID, f Flow, ps topology.PathSet, pathIdx int) []topology.LinkID {
	dst = ps.AppendLinks(pathIdx, append(dst, c.topo.HostUplink(f.Src)))
	return append(dst, c.topo.HostDownlink(f.Dst))
}

// CountElephant adds sign to the elephant count of every link of route
// and marks those links changed.
func (c *Core) CountElephant(route []topology.LinkID, sign int32) {
	for _, l := range route {
		c.eleCounts[l] += sign
		c.mark(l)
	}
}

// ElephantStarted counts a flow on route that just became an elephant.
func (c *Core) ElephantStarted(route []topology.LinkID) {
	c.CountElephant(route, +1)
	c.elephants++
	c.peakElephants = max(c.peakElephants, c.elephants)
}

// ElephantEnded uncounts an elephant on route that just completed.
func (c *Core) ElephantEnded(route []topology.LinkID) {
	c.CountElephant(route, -1)
	c.elephants--
}

// LinkCapacity returns a link's effective bandwidth in bits/s: nominal,
// 0 while the link is down. It is the bandwidth half of the switch
// state the paper's monitors query (§2.4.2).
func (c *Core) LinkCapacity(l topology.LinkID) float64 { return c.capacity[l] }

// LinkDown reports whether l is failed.
func (c *Core) LinkDown(l topology.LinkID) bool { return c.capacity[l] <= 0 }

// SetLinkDown fails or repairs l: it updates l's effective capacity,
// marks l changed and traces a LinkFail or LinkRecover at the engine's
// clock. It returns false, and does nothing, when l is already in that
// state.
func (c *Core) SetLinkDown(l topology.LinkID, down bool) bool {
	if c.LinkDown(l) == down {
		return false
	}
	kind, capacity := trace.KindLinkRecover, c.topo.Graph().Link(l).Capacity
	if down {
		kind, capacity = trace.KindLinkFail, 0
	}
	c.capacity[l] = capacity
	c.mark(l)
	if c.tracer.Enabled() {
		c.tracer.Emit(trace.Event{T: c.now(), Kind: kind, Flow: -1, Link: int32(l)})
	}
	return true
}

// EmitFlowStart traces a flow's arrival. T is the arrival time, so a
// FlowEnd's T minus this is bit-for-bit the flow's transfer time.
func (c *Core) EmitFlowStart(f Flow, sizeBits float64) {
	c.emit(trace.KindFlowStart, f.ID, int64(f.Src), int64(f.Dst), sizeBits)
}

// EmitFlowEnd traces a flow's completion on path pathIdx.
func (c *Core) EmitFlowEnd(id, pathIdx int, sizeBits float64) {
	c.emit(trace.KindFlowEnd, id, int64(pathIdx), 0, sizeBits)
}

// EmitPathSwitch traces a flow's move from path from to path to.
func (c *Core) EmitPathSwitch(id, from, to int) {
	c.emit(trace.KindPathSwitch, id, int64(from), int64(to), 0)
}

// emit traces one link-less event at the engine's clock (flow -1: none).
func (c *Core) emit(kind trace.Kind, flow int, a, b int64, v float64) {
	if c.tracer.Enabled() {
		c.tracer.Emit(trace.Event{T: c.now(), Kind: kind, Flow: int32(flow), Link: -1, A: a, B: b, V: v})
	}
}

// SnapshotCounters encodes the control-byte and elephant counters, in
// the flow engine's snapshot header.
func (c *Core) SnapshotCounters(enc *snap.Encoder) {
	enc.F64(c.controlBytes)
	enc.I64(int64(c.elephants))
	enc.I64(int64(c.peakElephants))
}

// RestoreCounters decodes what SnapshotCounters wrote. The restoring
// engine then recounts its active elephants through CountElephant; its
// change feed is new, so the first drain reads every port afresh.
func (c *Core) RestoreCounters(dec *snap.Decoder) {
	c.controlBytes = dec.F64()
	c.elephants = int(dec.I64())
	c.peakElephants = int(dec.I64())
}

// SnapshotLinks encodes the link count and the failed links' IDs in
// ascending order, in the flow engine's snapshot header.
func (c *Core) SnapshotLinks(enc *snap.Encoder) {
	enc.U32(uint32(len(c.capacity)))
	downs := 0
	for l := range c.capacity {
		if c.LinkDown(topology.LinkID(l)) {
			downs++
		}
	}
	enc.U32(uint32(downs))
	for l := range c.capacity {
		if c.LinkDown(topology.LinkID(l)) {
			enc.U32(uint32(l))
		}
	}
}

// RestoreLinks decodes what SnapshotLinks wrote and fails those links
// of a fresh Core. A restored failure is state, not an event: it is not
// traced, and the new change feed's first drain reads it anyway.
func (c *Core) RestoreLinks(dec *snap.Decoder) error {
	if n := int(dec.U32()); n != len(c.capacity) && dec.Err() == nil {
		return fmt.Errorf("snapshot topology has %d links, config topology has %d", n, len(c.capacity))
	}
	for i := dec.Count(4); i > 0; i-- {
		l := dec.U32()
		if int(l) >= len(c.capacity) {
			return fmt.Errorf("snapshot fails link %d out of range", l)
		}
		c.capacity[l] = 0
	}
	return dec.Err()
}
