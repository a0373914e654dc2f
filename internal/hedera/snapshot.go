package hedera

import (
	"fmt"
	"sort"

	"dard/internal/flowsim"
	"dard/internal/sched"
	"dard/internal/snap"
	"dard/internal/topology"
)

// Checkpoint support for the centralized controller. Its private state
// is small: the per-destination path-class memory that seeds each
// annealing round, the two observability counters, and one pending
// round timer.

// timerTagRound marks the controller's periodic scheduling round.
const timerTagRound = sched.TagControllerBase

func roundRef() sched.TimerRef {
	return sched.TimerRef{Tag: timerTagRound}
}

var _ flowsim.SnapshotController = (*Controller)(nil)

// SnapshotState implements flowsim.SnapshotController; viaOf is encoded
// in sorted key order so identical logical states yield identical bytes.
func (c *Controller) SnapshotState(_ sched.Host, enc *snap.Encoder) error {
	enc.I64(int64(c.Rounds))
	enc.I64(int64(c.Moves))
	dsts := make([]topology.NodeID, 0, len(c.viaOf))
	for d := range c.viaOf {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	enc.U32(uint32(len(dsts)))
	for _, d := range dsts {
		enc.I64(int64(d))
		enc.I64(int64(c.viaOf[d]))
	}
	return nil
}

// RestoreState implements flowsim.SnapshotController.
func (c *Controller) RestoreState(h sched.Host, dec *snap.Decoder) error {
	c.Rounds = int(dec.I64())
	c.Moves = int(dec.I64())
	n := dec.Count(8 + 8)
	if err := dec.Err(); err != nil {
		return err
	}
	g := h.Topo().Graph()
	nodeMax := topology.NodeID(g.NumNodes())
	for i := 0; i < n; i++ {
		d := topology.NodeID(dec.I64())
		via := int(dec.I64())
		if err := dec.Err(); err != nil {
			return err
		}
		if d < 0 || d >= nodeMax || g.Node(d).Kind != topology.Host {
			return fmt.Errorf("hedera: snapshot assignment names non-host node %d", d)
		}
		if via < 0 {
			return fmt.Errorf("hedera: snapshot assignment for host %d has negative path class", d)
		}
		c.viaOf[d] = via
	}
	return dec.Err()
}

// RebuildTimer implements flowsim.SnapshotController. The round chain
// walks the flow engine's active-flow table, so only a flowsim.Sim can
// host it.
func (c *Controller) RebuildTimer(h sched.Host, ref sched.TimerRef) (func(), error) {
	if ref.Tag != timerTagRound {
		return nil, fmt.Errorf("hedera: unknown timer tag %d", ref.Tag)
	}
	s, ok := h.(*flowsim.Sim)
	if !ok {
		return nil, fmt.Errorf("hedera: round timer needs the flow engine, not %T", h)
	}
	return c.roundFn(s), nil
}
