package sched

import (
	"fmt"
	"math"
	"math/rand"

	"dard/internal/snap"
	"dard/internal/topology"
	"dard/internal/trace"
)

// Core is the engine-independent half of Host and ctlmsg.StateSource,
// embedded by both engines (flowsim.Sim and psim.Runtime): the run's
// topology, seed, random source and tracer, the switch state DARD's
// monitors query (§2.4), and the control-byte and elephant accounting.
// An engine adds its clock and timers, LinkCapacity, flow storage and
// routing.
//
// A route is a flow's full host-to-host link list (AppendRoute). The engine calls
// ElephantStarted when a flow becomes an elephant, ElephantEnded when an
// elephant completes, and CountElephant(route, -1) and (newRoute, +1)
// around an active elephant's path switch.
//
//dardsnap:fields encoder=Core.SnapshotCounters decoder=Core.RestoreCounters
type Core struct {
	topo   topology.Network //dardlint:snapfield configuration, not state; the restoring engine rebuilds its Core from the run's Config
	g      *topology.Graph  //dardlint:snapfield topo's graph, cached for the per-link loops
	seed   int64            //dardlint:snapfield configuration; the flow engine checks it against its snapshot header itself
	rng    *rand.Rand       //dardlint:snapfield wraps the engine's source, whose stream position the engine checkpoints
	tracer trace.Tracer     //dardlint:snapfield never nil (Nop when tracing is off); the restored run injects its own sink
	now    func() float64   //dardlint:snapfield the engine's clock, wired by NewCore

	eleCounts []int32  //dardlint:snapfield derived from the active elephants' routes; the restoring engine recounts them through CountElephant
	portStamp []uint64 //dardlint:snapfield invalidation counter, only its changes are observable; RenewStamps moves every entry on at restore

	controlBytes  float64
	elephants     int
	peakElephants int
}

// NewCore builds the core of a run on net. seeded is the run's random
// source, which the engine seeds from seed, and now the engine's clock,
// read to timestamp trace events; a nil tracer disables tracing.
func NewCore(net topology.Network, seed int64, seeded rand.Source, tracer trace.Tracer, now func() float64) Core {
	g := net.Graph()
	return Core{
		topo:      net,
		g:         g,
		seed:      seed,
		rng:       rand.New(seeded),
		tracer:    trace.OrNop(tracer),
		now:       now,
		eleCounts: make([]int32, g.NumLinks()),
		portStamp: make([]uint64, g.NumNodes()),
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

// PortStamp returns the switch's port-state stamp (ctlmsg.StateSource):
// it moves whenever the elephant count or capacity of one of the
// switch's exit links changes, so switch agents re-encode only the ports
// that moved.
func (c *Core) PortStamp(sw topology.NodeID) uint64 { return c.portStamp[sw] }

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
// and bumps the port stamps of the switches those links leave.
func (c *Core) CountElephant(route []topology.LinkID, sign int32) {
	for _, l := range route {
		c.eleCounts[l] += sign
		c.portStamp[c.g.Link(l).From]++
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

// CapacityChanged bumps the port stamp of the switch link l leaves, for
// an engine whose link just failed or recovered.
func (c *Core) CapacityChanged(l topology.LinkID) { c.portStamp[c.g.Link(l).From]++ }

// RenewStamps moves every port stamp on. A restored run's switch agents
// are new and build their records on first Serve; renewing the stamps as
// well means no stamp from before the restore can read as current.
func (c *Core) RenewStamps() {
	for i := range c.portStamp {
		c.portStamp[i]++
	}
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
// engine recounts its active elephants through CountElephant, then
// calls RenewStamps.
func (c *Core) RestoreCounters(dec *snap.Decoder) {
	c.controlBytes = dec.F64()
	c.elephants = int(dec.I64())
	c.peakElephants = int(dec.I64())
}
