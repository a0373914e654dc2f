package dard

import (
	"fmt"
	"math"

	"dard/internal/ctlmsg"
	"dard/internal/fpcmp"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/trace"
)

// PathState is one entry of a monitor's path state vector PV (§2.5): the
// state of the most congested switch-switch link along the path.
type PathState struct {
	// Bandwidth is the bottleneck link's capacity in bits/s.
	Bandwidth float64
	// Flows is the number of elephant flows on the bottleneck link.
	Flows int
	// BoNF is Bandwidth/Flows, +Inf when Flows is zero, 0 while the
	// bottleneck link is failed or its switch presumed dead.
	BoNF float64
}

// Collector assembles one monitor's per-link switch state (§2.4.2). With a
// reliable control plane it resolves synchronously, exactly like the
// original monitors. With ctlmsg faults enabled it becomes a small
// asynchronous protocol: every switch exchange that loses a message is
// retried with exponential backoff up to CtlRetryMax times; a switch
// that still answers nothing is served from the last round's cached
// state (staleness), and one that misses DeadAfter consecutive rounds is
// presumed dead — its ports report zero bandwidth, which collapses the
// covered paths' BoNF to zero and makes Algorithm 1 route around them.
type Collector struct {
	env       sched.Host
	monitorID uint64
	switches  []topology.NodeID
	agents    map[topology.NodeID]*ctlmsg.SwitchAgent
	channels  map[topology.NodeID]*ctlmsg.Channel
	faults    ctlmsg.Faults
	retryMax  int
	backoff   float64
	deadAfter int

	seqNo    uint32
	inFlight bool
	misses   map[topology.NodeID]int
	cache    map[topology.LinkID]ctlmsg.PortState
	// round is the per-round link-state map, cleared and reused every
	// round instead of allocated per query tick. Rounds never pipeline
	// (inFlight skips an overlapping tick; the sync path completes before
	// returning), and done callbacks fold synchronously without retaining
	// the map, so one scratch map per collector is safe.
	round map[topology.LinkID]ctlmsg.PortState
}

// NewCollector builds the collector for one monitor over its covering
// switches. The switch list must be in stable (sorted) order; the
// collector launches exchanges in that order so runs are deterministic.
func NewCollector(env sched.Host, monitorID uint64, switches []topology.NodeID, opts Options) *Collector {
	return &Collector{
		env:       env,
		monitorID: monitorID,
		switches:  switches,
		agents:    make(map[topology.NodeID]*ctlmsg.SwitchAgent),
		channels:  make(map[topology.NodeID]*ctlmsg.Channel),
		faults:    opts.Faults,
		retryMax:  opts.CtlRetryMax,
		backoff:   opts.CtlRetryBackoff,
		deadAfter: opts.DeadAfter,
		misses:    make(map[topology.NodeID]int),
		cache:     make(map[topology.LinkID]ctlmsg.PortState),
		round:     make(map[topology.LinkID]ctlmsg.PortState),
	}
}

// Assemble runs one query round. done receives the per-link state, the
// wire bytes consumed (retries and duplicates included), and whether
// every covered link has a usable entry; with faults disabled (or when
// every exchange succeeds without delay) it is called synchronously.
// When an earlier round is still retrying, the tick is skipped — the
// control plane does not pipeline rounds. Errors are protocol-level
// (marshal/agent bugs), not injected faults.
func (c *Collector) Assemble(done func(linkState map[topology.LinkID]ctlmsg.PortState, wireBytes int, complete bool)) error {
	if !c.faults.Enabled() {
		return c.assembleSync(done)
	}
	if c.inFlight {
		return nil
	}
	c.inFlight = true
	c.seqNo++
	seq := c.seqNo
	clear(c.round)
	linkState := c.round
	totalBytes := 0
	complete := true
	remaining := len(c.switches)
	for _, sw := range c.switches {
		sw := sw
		c.collectSwitch(sw, seq, 0, 0, func(ports []ctlmsg.PortState, bytes int, ok bool) {
			totalBytes += bytes
			if ok {
				c.misses[sw] = 0
				for _, p := range ports {
					linkState[topology.LinkID(p.LinkID)] = p
					c.cache[topology.LinkID(p.LinkID)] = p
				}
			} else {
				c.misses[sw]++
				agent, err := c.agent(sw)
				if err != nil {
					panic(fmt.Sprintf("dard: collector: %v", err))
				}
				if c.misses[sw] >= c.deadAfter {
					// Presumed dead: every port it covered reports zero
					// bandwidth, so the paths through it read BoNF 0.
					for _, l := range agent.Links() {
						linkState[l] = ctlmsg.PortState{LinkID: uint32(l)}
					}
				} else {
					// Serve the last state it did report, if any.
					for _, l := range agent.Links() {
						if p, have := c.cache[l]; have {
							linkState[l] = p
						} else {
							complete = false
						}
					}
				}
			}
			remaining--
			if remaining == 0 {
				c.inFlight = false
				done(linkState, totalBytes, complete)
			}
		})
	}
	return nil
}

// assembleSync is the fault-free fast path: the original monitors'
// synchronous exchange loop, byte for byte.
func (c *Collector) assembleSync(done func(map[topology.LinkID]ctlmsg.PortState, int, bool)) error {
	c.seqNo++
	clear(c.round)
	linkState := c.round
	totalBytes := 0
	for _, sw := range c.switches {
		agent, err := c.agent(sw)
		if err != nil {
			return err
		}
		qb, err := c.query(sw).MarshalBinary()
		if err != nil {
			return err
		}
		rb, err := agent.Serve(qb)
		if err != nil {
			return err
		}
		totalBytes += len(qb) + len(rb)
		reply, err := c.parseReply(rb)
		if err != nil {
			return err
		}
		for _, p := range reply.Ports {
			linkState[topology.LinkID(p.LinkID)] = p
		}
	}
	done(linkState, totalBytes, true)
	return nil
}

// collectSwitch runs one switch's exchange chain: attempt, and on loss
// re-attempt after an exponentially backed-off delay until the retry
// budget runs out. resolve fires exactly once per chain.
func (c *Collector) collectSwitch(sw topology.NodeID, seq uint32, attempt, bytesSoFar int, resolve func(ports []ctlmsg.PortState, bytes int, ok bool)) {
	agent, err := c.agent(sw)
	if err != nil {
		panic(fmt.Sprintf("dard: collector: %v", err))
	}
	ch := c.channel(sw)
	q := c.query(sw)
	q.SeqNo = seq
	qb, err := q.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("dard: collector: marshal query: %v", err))
	}
	rb, wire, ok, err := ch.TryExchange(agent, qb)
	if err != nil {
		panic(fmt.Sprintf("dard: collector: exchange with switch %d: %v", sw, err))
	}
	bytes := bytesSoFar + wire
	if ok {
		reply, err := c.parseReply(rb)
		if err != nil {
			panic(fmt.Sprintf("dard: collector: reply from switch %d: %v", sw, err))
		}
		deliver := func() { resolve(reply.Ports, bytes, true) }
		// Delivery and retry timers carry no checkpoint descriptor:
		// runs with faults refuse to snapshot (snapshot.go).
		if ch.Delay() > 0 {
			c.env.AfterRef(ch.Delay(), sched.TimerRef{}, deliver)
		} else {
			deliver()
		}
		return
	}
	if attempt < c.retryMax {
		c.env.AfterRef(ch.Delay()+ctlmsg.Backoff(c.backoff, attempt), sched.TimerRef{}, func() {
			c.collectSwitch(sw, seq, attempt+1, bytes, resolve)
		})
		return
	}
	resolve(nil, bytes, false)
}

func (c *Collector) query(sw topology.NodeID) ctlmsg.Query {
	return ctlmsg.Query{
		MonitorID:       c.monitorID,
		SwitchID:        uint32(sw),
		SeqNo:           c.seqNo,
		TimestampMicros: uint64(c.env.Now() * 1e6),
	}
}

func (c *Collector) parseReply(rb []byte) (ctlmsg.Reply, error) {
	var reply ctlmsg.Reply
	if err := reply.UnmarshalBinary(rb); err != nil {
		return reply, err
	}
	if reply.SeqNo != c.seqNo {
		return reply, fmt.Errorf("reply sequence %d for query %d", reply.SeqNo, c.seqNo)
	}
	return reply, nil
}

func (c *Collector) agent(sw topology.NodeID) (*ctlmsg.SwitchAgent, error) {
	a := c.agents[sw]
	if a == nil {
		var err error
		a, err = ctlmsg.NewSwitchAgent(c.env, sw)
		if err != nil {
			return nil, err
		}
		c.agents[sw] = a
	}
	return a, nil
}

func (c *Collector) channel(sw topology.NodeID) *ctlmsg.Channel {
	ch := c.channels[sw]
	if ch == nil {
		ch = ctlmsg.NewChannel(c.faults, c.monitorID, uint32(sw))
		c.channels[sw] = ch
	}
	return ch
}

// FoldPVInto folds the per-link port state into the path state vector
// PV over an implicit path set: each path takes the state of its most
// congested link, with a zero-capacity (failed or dead-switch) link
// collapsing the path's BoNF to zero. It folds into pv's backing array
// (resized to ps.Len()) with buf as link scratch, so a monitor's
// steady-state query tick allocates nothing once warm. It returns the
// folded pv and the (possibly grown) buf; neither retains linkState.
func FoldPVInto(pv []PathState, buf []topology.LinkID, ps topology.PathSet, linkState map[topology.LinkID]ctlmsg.PortState) ([]PathState, []topology.LinkID, error) {
	n := ps.Len()
	if cap(pv) < n {
		pv = make([]PathState, n)
	} else {
		pv = pv[:n]
	}
	for i := 0; i < n; i++ {
		buf = ps.AppendLinks(i, buf[:0])
		st, err := foldPathState(buf, linkState)
		if err != nil {
			return nil, buf, err
		}
		pv[i] = st
	}
	return pv, buf, nil
}

// foldPathState reduces one path's links to its bottleneck state.
func foldPathState(links []topology.LinkID, linkState map[topology.LinkID]ctlmsg.PortState) (PathState, error) {
	st := PathState{Bandwidth: math.Inf(1), BoNF: math.Inf(1)}
	for _, l := range links {
		port, ok := linkState[l]
		if !ok {
			return st, fmt.Errorf("no switch reported state for link %d", l)
		}
		capacity := float64(port.BandwidthMbps) * 1e6
		n := int(port.ElephantFlows)
		bonf := math.Inf(1)
		switch {
		case fpcmp.IsZero(capacity):
			bonf = 0 // failed link
		case n > 0:
			bonf = capacity / float64(n)
		}
		if bonf < st.BoNF || (math.IsInf(st.BoNF, 1) && capacity < st.Bandwidth) {
			st = PathState{Bandwidth: capacity, Flows: n, BoNF: bonf}
		}
	}
	return st, nil
}

// MinBoNF is the monitor's congestion signal: the worst path's BoNF,
// with an idle path's +Inf counted as its bottleneck capacity (the whole
// link is available to a first elephant).
func MinBoNF(pv []PathState) float64 {
	min := math.Inf(1)
	for _, st := range pv {
		b := st.BoNF
		if math.IsInf(b, 1) {
			b = st.Bandwidth
		}
		if b < min {
			min = b
		}
	}
	return min
}

// MarkDeadPaths updates the per-path dead mask from the assembled PV and
// emits a PathDead trace event for every path that just transitioned to
// dead (BoNF collapsed to zero). entity identifies the monitor
// (srcHost<<32|dstToR); dead may be nil on the first call.
func MarkDeadPaths(tr trace.Tracer, now float64, entity int64, pv []PathState, dead []bool) []bool {
	if dead == nil {
		dead = make([]bool, len(pv))
	}
	for i, st := range pv {
		isDead := fpcmp.IsZero(st.BoNF)
		if isDead && !dead[i] && tr.Enabled() {
			tr.Emit(trace.Event{
				T: now, Kind: trace.KindPathDead, Flow: -1, Link: -1,
				A: int64(i), B: entity,
			})
		}
		dead[i] = isDead
	}
	return dead
}
