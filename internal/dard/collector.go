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

// Collector assembles one monitor's per-link switch state (§2.4.2). With
// a reliable control plane it resolves synchronously from the
// controller's port view, which carries what every exchange would
// deliver, and counts the bytes those exchanges take. With ctlmsg faults
// enabled it becomes a small asynchronous protocol: every switch
// exchange that loses a message is retried with exponential backoff up
// to CtlRetryMax times; a switch that still answers nothing is served
// from the last round's cached state (staleness), and one that misses
// DeadAfter consecutive rounds is presumed dead — its ports report zero
// bandwidth, which collapses the covered paths' BoNF to zero and makes
// Algorithm 1 route around them.
type Collector struct {
	env       sched.Host
	monitorID uint64
	switches  []topology.NodeID
	// wireBytes is what one fault-free round puts on the wire: a query
	// and a full reply per covering switch.
	wireBytes int
	shared    *roundScratch
	// channels and misses are each covering switch's fault channel and
	// count of consecutive unanswered rounds. Like round and cache they
	// are built on the first fault round; fault-free collectors never
	// touch them.
	channels  map[topology.NodeID]*ctlmsg.Channel
	faults    ctlmsg.Faults
	retryMax  int
	deadAfter int

	seqNo    uint32
	inFlight bool
	misses   map[topology.NodeID]int
	// round and cache are the link state of fault rounds, built on the
	// first one: what the round in flight has assembled, and the last
	// state each link was reported with. Fault rounds cannot use the
	// shared scratch because rounds of different collectors interleave
	// while their retries wait; one collector's rounds never pipeline
	// (inFlight skips an overlapping tick), so one round table per
	// collector is enough.
	round, cache *LinkState
}

// roundScratch is the state all of a Controller's monitors share on one
// host: the switch agents of fault rounds, indexed by NodeID and built
// on their first query, and the decoded port view fault-free rounds
// fold from. One view serves every monitor because a fault-free round
// runs start to finish inside one Assemble call and only ever brings
// the view up to date with the host.
type roundScratch struct {
	env    sched.Host
	agents []*ctlmsg.SwitchAgent
	// view holds every exit port's state as its switch last reported
	// it; read[sw] is the PortStamp sw's ports were read at, and
	// whether they have been read at all.
	view *LinkState
	read []viewStamp
	// nodes gathers new monitors' covering switches.
	nodes []topology.NodeID
}

type viewStamp struct {
	stamp uint64
	ok    bool
}

// roundScratch returns the controller's shared scratch for env, building
// it on first use (and afresh for a new host, whose agents and view
// must answer from that host's state).
func (c *Controller) roundScratch(env sched.Host) *roundScratch {
	if c.scratch == nil || c.scratch.env != env {
		g := env.Topo().Graph()
		c.scratch = &roundScratch{
			env:    env,
			agents: make([]*ctlmsg.SwitchAgent, g.NumNodes()),
			view:   NewLinkState(g.NumLinks()),
			read:   make([]viewStamp, g.NumNodes()),
		}
	}
	return c.scratch
}

// refresh brings sw's exit ports in the view up to date: it re-reads
// them, exactly as the switch's agent would encode them, only when the
// host's PortStamp for sw has moved since the view last read them.
func (s *roundScratch) refresh(sw topology.NodeID) error {
	stamp := s.env.PortStamp(sw)
	if r := s.read[sw]; r.ok && r.stamp == stamp {
		return nil
	}
	for _, l := range s.env.Topo().Graph().Out(sw) {
		if err := s.view.Set(ctlmsg.ReadPort(s.env, l)); err != nil {
			return err
		}
	}
	s.read[sw] = viewStamp{stamp: stamp, ok: true}
	return nil
}

// coveringSwitches returns the sorted switches ps's paths leave from,
// exactly the four switch groups of §2.4.2, as an exact-size slice the
// caller owns.
func (s *roundScratch) coveringSwitches(ps topology.PathSet) []topology.NodeID {
	s.nodes = ps.AppendSwitches(s.nodes[:0])
	switches := make([]topology.NodeID, len(s.nodes))
	copy(switches, s.nodes)
	return switches
}

func (s *roundScratch) agent(sw topology.NodeID) (*ctlmsg.SwitchAgent, error) {
	if int(sw) < len(s.agents) && s.agents[sw] != nil {
		return s.agents[sw], nil
	}
	a, err := ctlmsg.NewSwitchAgent(s.env, sw)
	if err != nil {
		return nil, err
	}
	s.agents[sw] = a
	return a, nil
}

// newCollector builds the collector for one monitor over the switches
// covering its path set. coveringSwitches sorts them, and the collector
// launches exchanges in that order so runs are deterministic.
func (c *Controller) newCollector(env sched.Host, monitorID uint64, ps topology.PathSet) *Collector {
	s := c.roundScratch(env)
	switches := s.coveringSwitches(ps)
	g := env.Topo().Graph()
	wireBytes := 0
	for _, sw := range switches {
		wireBytes += ctlmsg.ExchangeLen(len(g.Out(sw)))
	}
	return &Collector{
		env:       env,
		monitorID: monitorID,
		switches:  switches,
		wireBytes: wireBytes,
		shared:    s,
		faults:    c.opts.Faults,
		retryMax:  c.opts.CtlRetryMax,
		deadAfter: c.opts.DeadAfter,
	}
}

// Assemble runs one query round. done receives the per-link state, the
// wire bytes consumed (retries and duplicates included), and whether
// every covered link has a usable entry; with faults disabled (or when
// every exchange succeeds without delay) it is called synchronously.
// The link state is only valid during the call. When an earlier round is
// still retrying, the tick is skipped — the control plane does not
// pipeline rounds. Errors are protocol-level (marshal/agent bugs), not
// injected faults.
func (c *Collector) Assemble(done func(linkState *LinkState, wireBytes int, complete bool)) error {
	if !c.faults.Enabled() {
		return c.assembleView(done)
	}
	if c.inFlight {
		return nil
	}
	c.inFlight = true
	c.seqNo++
	seq := c.seqNo
	if c.round == nil {
		n := c.env.Topo().Graph().NumLinks()
		c.round, c.cache = NewLinkState(n), NewLinkState(n)
		c.channels = make(map[topology.NodeID]*ctlmsg.Channel)
		c.misses = make(map[topology.NodeID]int)
	}
	c.round.Reset()
	linkState := c.round
	set := func(ls *LinkState, p ctlmsg.PortState) {
		if err := ls.Set(p); err != nil {
			panic(fmt.Sprintf("dard: collector: %v", err))
		}
	}
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
					set(linkState, p)
					set(c.cache, p)
				}
			} else {
				c.misses[sw]++
				agent, err := c.shared.agent(sw)
				if err != nil {
					panic(fmt.Sprintf("dard: collector: %v", err))
				}
				if c.misses[sw] >= c.deadAfter {
					// Presumed dead: every port it covered reports zero
					// bandwidth, so the paths through it read BoNF 0.
					for _, l := range agent.Links() {
						set(linkState, ctlmsg.PortState{LinkID: uint32(l)})
					}
				} else {
					// Serve the last state it did report, if any.
					for _, l := range agent.Links() {
						if p, have := c.cache.Get(l); have {
							set(linkState, p)
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

// assembleView is the fault-free round. On a reliable channel every
// exchange delivers the switch's current port state, so the round brings
// the controller's port view up to date for its covering switches and
// hands over that view, which holds the state of every link it covers,
// with the bytes the exchanges would have carried. Only switches whose
// ports changed are read; a warm round allocates nothing.
func (c *Collector) assembleView(done func(*LinkState, int, bool)) error {
	c.seqNo++
	for _, sw := range c.switches {
		if err := c.shared.refresh(sw); err != nil {
			return err
		}
	}
	done(c.shared.view, c.wireBytes, true)
	return nil
}

// collectSwitch runs one switch's exchange chain: attempt, and on loss
// re-attempt after an exponentially backed-off delay until the retry
// budget runs out. resolve fires exactly once per chain.
func (c *Collector) collectSwitch(sw topology.NodeID, seq uint32, attempt, bytesSoFar int, resolve func(ports []ctlmsg.PortState, bytes int, ok bool)) {
	agent, err := c.shared.agent(sw)
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
		var reply ctlmsg.Reply
		if err := c.parseReply(&reply, rb); err != nil {
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
		c.env.AfterRef(ch.Delay()+ctlmsg.Backoff(CtlRetryBackoff, attempt), sched.TimerRef{}, func() {
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

// parseReply decodes rb into reply, reusing its port storage, and checks
// it answers the current query.
func (c *Collector) parseReply(reply *ctlmsg.Reply, rb []byte) error {
	if err := reply.UnmarshalBinary(rb); err != nil {
		return err
	}
	if reply.SeqNo != c.seqNo {
		return fmt.Errorf("reply sequence %d for query %d", reply.SeqNo, c.seqNo)
	}
	return nil
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
// steady-state query tick allocates nothing once warm
// (TestAssembleSteadyStateAllocs). It returns the folded pv and the
// (possibly grown) buf; neither retains linkState.
func FoldPVInto(pv []PathState, buf []topology.LinkID, ps topology.PathSet, linkState *LinkState) ([]PathState, []topology.LinkID, error) {
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
func foldPathState(links []topology.LinkID, linkState *LinkState) (PathState, error) {
	st := PathState{Bandwidth: math.Inf(1), BoNF: math.Inf(1)}
	for _, l := range links {
		port, ok := linkState.Get(l)
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
