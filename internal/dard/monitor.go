package dard

import (
	"fmt"

	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/trace"
)

// monitor tracks the BoNF of every equal-cost path between one
// source-destination ToR pair on behalf of one source end host (§2.4).
// Path state is assembled by polling the switches on the pair's paths
// through ctlmsg — the OpenFlow statistics interface of the prototype —
// so control-byte accounting reflects real wire sizes. The polling
// lives in the Collector, which also gives this monitor retry/backoff
// and dead-switch detection when control-channel faults are enabled.
//
//dardsnap:fields encoder=Controller.SnapshotState decoder=Controller.restoreMonitor
type monitor struct {
	ctl            *Controller     //dardlint:snapfield backlink to the owning controller, wired by newMonitor
	srcHost        topology.NodeID //dardlint:snapfield identity comes from the enclosing host record; restore hands it to newMonitor
	srcToR, dstToR topology.NodeID //dardlint:snapfield srcToR is the host's ToR, re-derived from topology (dstToR is serialized)
	// ps is the pair's implicit path set; the monitor stores this small
	// handle instead of materialized paths.
	//dardlint:snapfield pure function of the topology; newMonitor recomputes the implicit path set
	ps topology.PathSet
	// flows holds the IDs of the host's elephant flows towards dstToR.
	flows map[int]struct{}
	// pv is the path state vector assembled at the last completed query
	// round; nil until the first round completes. An incomplete round
	// (faults, no cached state yet) leaves the previous pv in place.
	// Complete rounds fold into the same backing array.
	pv []PathState
	// dead marks paths whose BoNF collapsed to zero, for PathDead
	// transition events and immediate evacuation.
	dead []bool
	coll *Collector
	// fv and linkBuf are scratch reused across query ticks and
	// scheduling rounds.
	fv      []int             //dardlint:snapfield scratch, overwritten before every use
	linkBuf []topology.LinkID //dardlint:snapfield scratch, overwritten before every use

	// lastAcked and stalls track each elephant's cumulative-ACK point and
	// zero-progress round count for stall detection; nil unless the host
	// offers FlowProgress.
	lastAcked map[int]int //dardlint:snapfield only hosts with FlowProgress fill it, and the packet runtime, the one such host, has no checkpoints
	stalls    map[int]int //dardlint:snapfield only hosts with FlowProgress fill it, and the packet runtime, the one such host, has no checkpoints

	// serial is the monitor's run-unique identity, carried by its query
	// timers in checkpoints. Issued by Controller.monitorSeq; overwritten
	// from the snapshot on restore.
	serial int64

	released bool //dardlint:snapfield released monitors are dropped from the host map and never serialized; a restored monitor is live by construction
}

func newMonitor(env sched.Host, c *Controller, srcHost, srcToR, dstToR topology.NodeID) *monitor {
	c.monitorSeq++
	m := &monitor{
		ctl:     c,
		srcHost: srcHost,
		srcToR:  srcToR,
		dstToR:  dstToR,
		ps:      env.PathSet(srcToR, dstToR),
		flows:   make(map[int]struct{}),
		serial:  c.monitorSeq,
	}
	m.coll = c.newCollector(env, m.entity(), m.ps)
	return m
}

// entity is the monitor's identity in queries and trace records.
func (m *monitor) entity() uint64 { return uint64(m.srcHost)<<32 | uint64(m.dstToR) }

// scheduleQuery arms the periodic path-state assembly. The first query
// fires after a uniform random fraction of the interval so monitors
// across hosts are not synchronized.
func (m *monitor) scheduleQuery(env sched.Host) {
	first := env.Rand().Float64() * m.ctl.opts.QueryInterval
	env.AfterRef(first, m.tickRef(), m.tickFn(env))
}

func (m *monitor) tickRef() sched.TimerRef {
	return sched.TimerRef{Tag: timerTagQuery, A: m.serial}
}

// tickFn builds one firing of the monitor's query chain; restore rebinds
// a pending tick to its monitor by serial (snapshot.go).
func (m *monitor) tickFn(env sched.Host) func() {
	var tick func()
	tick = func() {
		if m.released {
			return
		}
		if err := m.assemble(env); err != nil {
			// A malformed control exchange is a bug, not an input error.
			panic(fmt.Sprintf("dard: path state assembling: %v", err))
		}
		env.AfterRef(m.ctl.opts.QueryInterval, m.tickRef(), tick)
	}
	return tick
}

// assemble runs one round of Path State Assembling (§2.4.2) through the
// shared collector and folds the per-port states into the path state
// vector when the round completes.
func (m *monitor) assemble(env sched.Host) error {
	return m.coll.Assemble(func(linkState *LinkState, wireBytes int, complete bool) {
		env.RecordControl(float64(wireBytes))
		if m.released || !complete {
			return // keep the previous pv until a full round lands
		}
		pv, buf, err := FoldPVInto(m.pv[:0], m.linkBuf, m.ps, linkState)
		if err != nil {
			panic(fmt.Sprintf("dard: path state assembling: %v", err))
		}
		m.pv, m.linkBuf = pv, buf
		m.dead = MarkDeadPaths(env.Tracer(), env.Now(), int64(m.entity()), pv, m.dead)
		if tr := env.Tracer(); tr.Enabled() {
			// One congestion signal per monitor and tick: the worst
			// path's BoNF.
			tr.Sample(trace.MetricMinBoNF, int64(m.entity()), env.Now(), MinBoNF(pv))
		}
		m.ctl.evacuate(env, m)
	})
}

// victimOn picks the monitor's lowest-ID active flow on a path.
func (m *monitor) victimOn(env sched.Host, path int) (int, bool) {
	victim, found := 0, false
	//dardlint:ordered victim choice is order-free: guarded min over unique flow IDs
	for id := range m.flows {
		if env.FlowPath(id) == path && env.FlowActive(id) {
			if !found || id < victim { // deterministic choice
				victim, found = id, true
			}
		}
	}
	return victim, found
}

// flowVector builds FV: the number of the monitor's elephant flows on
// each of its len(pv) paths (§2.5). The returned slice is the monitor's
// scratch, valid until the next call.
func (m *monitor) flowVector(env sched.Host) []int {
	n := len(m.pv)
	if cap(m.fv) < n {
		m.fv = make([]int, n)
	}
	fv := m.fv[:n]
	for i := range fv {
		fv[i] = 0
	}
	for id := range m.flows {
		if p := env.FlowPath(id); p >= 0 && p < n {
			fv[p]++
		}
	}
	return fv
}
