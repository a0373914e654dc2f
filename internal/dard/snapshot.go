package dard

import (
	"fmt"
	"sort"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/snap"
	"dard/internal/topology"
)

// Checkpoint support for the DARD controller.
//
// The control plane's private state is the per-host daemon map: each
// host's round-timer flag and its monitors, each monitor carrying its
// elephant set, last assembled path state vector, dead-path mask, and
// collector sequence number; a monitor's pending fold runs before its
// vector is encoded. Everything else a monitor holds (paths,
// covering switches, channels) is a pure function of the topology and is
// rebuilt by newMonitor, as is the controller's shared round scratch
// (switch agents and wire buffers) on first use.
//
// Timers: the per-host scheduling round is tagged with the host's node
// ID; a monitor's query tick is tagged with the monitor's run-unique
// serial. Serials, not keys, because keys are reused — a released
// monitor's pending tick must rebuild as the same no-op the original
// closure's released guard would have been, never rebind to a successor
// monitor of the same pair.
//
// With control-channel faults enabled a run is not snapshottable: the
// per-switch channels hold private RNG streams and the retry chains
// schedule undescribed timers, so SnapshotState refuses up front.

// Controller-owned timer tags.
const (
	// timerTagQuery marks a monitor's periodic query tick; operand A is
	// the monitor serial.
	timerTagQuery = sched.TagControllerBase
	// timerTagRound marks a host's selfish-scheduling round; operand A is
	// the host's node ID.
	timerTagRound = sched.TagControllerBase + 1
)

func roundRef(n topology.NodeID) sched.TimerRef {
	return sched.TimerRef{Tag: timerTagRound, A: int64(n)}
}

var _ flowsim.SnapshotController = (*Controller)(nil)

// SnapshotState implements flowsim.SnapshotController. Hosts and
// monitors are encoded in sorted key order so identical logical states
// yield identical bytes.
func (c *Controller) SnapshotState(_ sched.Host, enc *snap.Encoder) error {
	if c.opts.Faults.Enabled() {
		return fmt.Errorf("%w: DARD with control-channel faults (channel RNG and retry chains cannot be serialized)", flowsim.ErrUnsnapshottable)
	}
	enc.I64(int64(c.Shifts))
	enc.I64(int64(c.Rounds))
	enc.I64(c.monitorSeq)

	nodes := make([]topology.NodeID, 0, len(c.hosts))
	for n := range c.hosts {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	enc.U32(uint32(len(nodes)))
	for _, n := range nodes {
		h := c.hosts[n]
		enc.I64(int64(n))
		enc.Bool(h.roundActive)
		keys := make([]monitorKey, 0, len(h.monitors))
		for k := range h.monitors {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		enc.U32(uint32(len(keys)))
		for _, k := range keys {
			m := h.monitors[k]
			enc.I64(int64(k))
			enc.I64(m.serial)
			enc.I64(int64(m.dstToR))
			ids := make([]int, 0, len(m.flows))
			for id := range m.flows {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			enc.U32(uint32(len(ids)))
			for _, id := range ids {
				enc.I64(int64(id))
			}
			m.materialize()
			enc.Bool(m.pv != nil)
			if m.pv != nil {
				enc.U32(uint32(len(m.pv)))
				for _, st := range m.pv {
					enc.F64(st.Bandwidth)
					enc.I64(int64(st.Flows))
					enc.F64(st.BoNF)
				}
			}
			enc.U32(uint32(len(m.dead)))
			for _, d := range m.dead {
				enc.Bool(d)
			}
			enc.U32(m.coll.seqNo)
		}
	}
	return nil
}

// RestoreState implements flowsim.SnapshotController: it rebuilds the
// host daemons and monitors inside the restored run. Timers (round
// chains and query ticks) are restored separately by the engine through
// RebuildTimer, so no scheduling happens here.
func (c *Controller) RestoreState(env sched.Host, dec *snap.Decoder) error {
	if c.opts.Faults.Enabled() {
		return fmt.Errorf("%w: DARD with control-channel faults", flowsim.ErrUnsnapshottable)
	}
	shifts := dec.I64()
	rounds := dec.I64()
	monitorSeq := dec.I64()
	nHosts := dec.Count(8 + 1 + 4)
	if err := dec.Err(); err != nil {
		return err
	}
	g := env.Topo().Graph()
	nodeMax := topology.NodeID(g.NumNodes())
	for i := 0; i < nHosts; i++ {
		n := topology.NodeID(dec.I64())
		roundActive := dec.Bool()
		nMon := dec.Count(8 * 3)
		if err := dec.Err(); err != nil {
			return err
		}
		if n < 0 || n >= nodeMax || g.Node(n).Kind != topology.Host {
			return fmt.Errorf("dard: snapshot host %d is not a host node", n)
		}
		if c.hosts[n] != nil {
			return fmt.Errorf("dard: snapshot repeats host %d", n)
		}
		h := c.host(n)
		h.roundActive = roundActive
		for j := 0; j < nMon; j++ {
			if err := c.restoreMonitor(env, n, h, dec); err != nil {
				return err
			}
		}
	}
	c.Shifts = int(shifts)
	c.Rounds = int(rounds)
	// newMonitor advanced the counter while rebuilding; the snapshot
	// value is authoritative so post-restore serials continue the
	// original sequence.
	c.monitorSeq = monitorSeq
	return dec.Err()
}

func (c *Controller) restoreMonitor(env sched.Host, n topology.NodeID, h *hostState, dec *snap.Decoder) error {
	key := monitorKey(dec.I64())
	serial := dec.I64()
	dstToR := topology.NodeID(dec.I64())
	nFlows := dec.Count(8)
	if err := dec.Err(); err != nil {
		return err
	}
	g := env.Topo().Graph()
	if dstToR < 0 || dstToR >= topology.NodeID(g.NumNodes()) {
		return fmt.Errorf("dard: snapshot monitor names non-attachment destination %d", dstToR)
	}
	if k := g.Node(dstToR).Kind; k != topology.ToR && k != topology.Router {
		return fmt.Errorf("dard: snapshot monitor names non-attachment destination %d", dstToR)
	}
	if h.monitors[key] != nil {
		return fmt.Errorf("dard: snapshot repeats monitor key %d on host %d", key, n)
	}
	srcToR := env.Topo().ToROf(n)
	if srcToR == dstToR {
		return fmt.Errorf("dard: snapshot monitor on host %d covers its own ToR", n)
	}
	m := newMonitor(env, c, n, srcToR, dstToR)
	m.serial = serial
	h.monitors[key] = m
	for i := 0; i < nFlows; i++ {
		id := int(dec.I64())
		if err := dec.Err(); err != nil {
			return err
		}
		if _, ok := env.FlowByID(id); !ok {
			return fmt.Errorf("dard: snapshot monitor references unknown flow %d", id)
		}
		m.flows[id] = struct{}{}
	}
	hasPV := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasPV {
		nPV := dec.Count(8 + 8 + 8)
		if err := dec.Err(); err != nil {
			return err
		}
		if nPV != m.ps.Len() {
			return fmt.Errorf("dard: snapshot pv has %d entries for %d paths", nPV, m.ps.Len())
		}
		m.pv = make([]PathState, nPV)
		for i := range m.pv {
			m.pv[i] = PathState{
				Bandwidth: dec.F64(),
				Flows:     int(dec.I64()),
				BoNF:      dec.F64(),
			}
		}
	}
	nDead := dec.Count(1)
	if err := dec.Err(); err != nil {
		return err
	}
	if nDead != 0 {
		if nDead != m.ps.Len() {
			return fmt.Errorf("dard: snapshot dead mask has %d entries for %d paths", nDead, m.ps.Len())
		}
		m.dead = make([]bool, nDead)
		for i := range m.dead {
			m.dead[i] = dec.Bool()
		}
	}
	m.coll.seqNo = dec.U32()
	return dec.Err()
}

// RebuildTimer implements flowsim.SnapshotController.
func (c *Controller) RebuildTimer(env sched.Host, ref sched.TimerRef) (func(), error) {
	switch ref.Tag {
	case timerTagQuery:
		// A serial with no live monitor is a released monitor's stale
		// tick; the original closure's released guard made it a no-op,
		// so the rebuilt timer is one too.
		for _, h := range c.hosts {
			//dardlint:ordered serials are run-unique, so at most one monitor matches regardless of iteration order
			for _, m := range h.monitors {
				if m.serial == ref.A {
					return m.tickFn(env), nil
				}
			}
		}
		return func() {}, nil
	case timerTagRound:
		n := topology.NodeID(ref.A)
		h := c.hosts[n]
		if h == nil {
			return nil, fmt.Errorf("dard: snapshot round timer references unknown host %d", ref.A)
		}
		return c.roundFn(env, n, h), nil
	}
	return nil, fmt.Errorf("dard: unknown timer tag %d", ref.Tag)
}
