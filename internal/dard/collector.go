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
// deliver, and the monitor counts the bytes those exchanges take. The
// round only pins the view: the scheduling round reads the paths it
// needs from the view at the pin (pathReader), and the whole path
// state vector is folded only for a reader of all of it (foldPending).
// With ctlmsg faults enabled it becomes a small
// asynchronous protocol: every switch exchange that loses a message is
// retried with exponential backoff up to CtlRetryMax times; a switch
// that still answers nothing is served from the last round's cached
// state (staleness), and one that misses DeadAfter consecutive rounds
// is presumed dead — its ports report zero bandwidth, which collapses
// the covered paths' BoNF to zero and makes Algorithm 1 route around
// them.
type Collector struct {
	env       sched.Host
	monitorID uint64
	ps        topology.PathSet
	// wireBytes is what one fault-free round puts on the wire: a query
	// and a full reply per covering switch.
	wireBytes int
	shared    *roundScratch
	// epoch is the view epoch of the last fault-free round, and pending
	// says its vector has not been folded yet (foldPending). A
	// scheduling round reads from the pin and leaves it pending.
	epoch   uint64
	pending bool

	faults    ctlmsg.Faults
	retryMax  int
	deadAfter int

	seqNo    uint32
	inFlight bool
	// switches are the sorted switches covering ps, and peers holds, in
	// that order, each one's agent, fault channel and count of
	// consecutive unanswered rounds. Like round and cache they are built
	// on the first fault round; fault-free collectors never touch them.
	switches []topology.NodeID
	peers    []faultPeer
	// round and cache are the link state of fault rounds, built on the
	// first one: what the round in flight has assembled, and the last
	// state each link was reported with. Fault rounds cannot use the
	// shared view because rounds of different collectors interleave
	// while their retries wait; one collector's rounds never pipeline
	// (inFlight skips an overlapping tick), so one round table per
	// collector is enough.
	round, cache *LinkState
}

// faultPeer is one covering switch as a fault round reaches it.
type faultPeer struct {
	agent  *ctlmsg.SwitchAgent
	ch     *ctlmsg.Channel
	misses int
}

// roundScratch is the state all of a Controller's monitors share on one
// host: the port view fault-free rounds fold from. One view serves every
// monitor because a fault-free round runs start to finish inside one
// tick and only ever brings the view up to date with the host; the
// view's undo log lets each monitor read the view as it stood at its
// last round, until the next round or its release.
type roundScratch struct {
	env sched.Host
	// view holds every port's state as the host's change feed last
	// named it; changed is the drain's buffer.
	view    *portView
	changed []topology.LinkID
}

// roundScratch returns the controller's shared scratch for env, building
// it on first use (and afresh for a new host, whose view must answer
// from that host's state).
func (c *Controller) roundScratch(env sched.Host) *roundScratch {
	if c.scratch == nil || c.scratch.env != env {
		c.scratch = &roundScratch{env: env, view: newPortView(env.Topo().Graph().NumLinks())}
	}
	return c.scratch
}

// drain brings the view up to date with the host: it re-reads, exactly
// as a switch agent would encode them, the switch-to-switch ports the
// host's change feed names, which on the first drain are all of them.
// Host links are skipped: a flow cannot route around its first and last
// hop, so no fold reads them (§2.2).
func (s *roundScratch) drain() error {
	g := s.env.Topo().Graph()
	s.changed = s.env.AppendChangedPorts(s.changed[:0])
	for _, l := range s.changed {
		if !g.IsSwitchLink(l) {
			continue
		}
		if err := s.view.set(ctlmsg.ReadPort(s.env, l)); err != nil {
			return err
		}
	}
	return nil
}

// newCollector builds the collector for one monitor over the switches
// covering its path set, exactly the four switch groups of §2.4.2. A
// fault-free round exchanges a query and a full reply with each, and an
// exchange's length is linear in the switch's port count
// (ctlmsg.ExchangeLen), so the round's bytes follow from the switch
// count and the port sum alone, without listing the switches. Fault
// rounds list them on their first round.
func (c *Controller) newCollector(env sched.Host, monitorID uint64, ps topology.PathSet) *Collector {
	switches, ports := ps.SwitchPorts()
	return &Collector{
		env:       env,
		monitorID: monitorID,
		ps:        ps,
		wireBytes: switches*ctlmsg.ExchangeLen(0) + ports*ctlmsg.PortStateLen,
		shared:    c.roundScratch(env),
		faults:    c.opts.Faults,
		retryMax:  c.opts.CtlRetryMax,
		deadAfter: c.opts.DeadAfter,
	}
}

// Assemble runs one fault round. done receives the per-link state, the
// wire bytes consumed (retries and duplicates included), and whether
// every covered link has a usable entry; when every exchange succeeds
// without delay it is called synchronously. The link state is only
// valid during the call. When an earlier round is still retrying, the
// tick is skipped — the control plane does not pipeline rounds. Errors
// are protocol-level (marshal/agent bugs), not injected faults.
// Fault-free rounds run through assembleView instead.
func (c *Collector) Assemble(done func(linkState *LinkState, wireBytes int, complete bool)) error {
	if c.inFlight {
		return nil
	}
	if c.round == nil {
		n := c.env.Topo().Graph().NumLinks()
		c.round, c.cache = NewLinkState(n), NewLinkState(n)
		c.switches = c.ps.AppendSwitches(nil)
		c.peers = make([]faultPeer, len(c.switches))
		for i, sw := range c.switches {
			agent, err := ctlmsg.NewSwitchAgent(c.env, sw)
			if err != nil {
				return err
			}
			c.peers[i] = faultPeer{agent: agent, ch: ctlmsg.NewChannel(c.faults, c.monitorID, uint32(sw))}
		}
	}
	c.inFlight = true
	c.seqNo++
	seq := c.seqNo
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
	for i, sw := range c.switches {
		peer := &c.peers[i]
		c.collectSwitch(peer, sw, seq, 0, 0, func(ports []ctlmsg.PortState, bytes int, ok bool) {
			totalBytes += bytes
			if ok {
				peer.misses = 0
				for _, p := range ports {
					set(linkState, p)
					set(c.cache, p)
				}
			} else {
				peer.misses++
				if peer.misses >= c.deadAfter {
					// Presumed dead: every port it covered reports zero
					// bandwidth, so the paths through it read BoNF 0.
					for _, l := range peer.agent.Links() {
						set(linkState, ctlmsg.PortState{LinkID: uint32(l)})
					}
				} else {
					// Serve the last state it did report, if any.
					for _, l := range peer.agent.Links() {
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
// exchange delivers the switch's current port state, so the round drains
// the host's changed ports into the controller's port view and pins the
// collector to the view's epoch; readers later see the view as it stood
// then, a path at a time (pathReader) or whole (foldPending). A round
// carries wireBytes on the wire. Only ports that changed are read; a
// warm round allocates nothing.
func (c *Collector) assembleView() error {
	c.seqNo++
	if err := c.shared.drain(); err != nil {
		return err
	}
	c.shared.view.pin(c)
	return nil
}

// foldPending folds ps's path state vector from the view as it stood at
// the collector's last fault-free round, into pv's backing array with
// buf as link scratch (see FoldPVInto), and settles the pending fold.
func (c *Collector) foldPending(pv []PathState, buf []topology.LinkID, ps topology.PathSet) ([]PathState, []topology.LinkID, error) {
	pv, buf, err := foldPV(pv, buf, ps, c.shared.view.at(c.epoch))
	c.release()
	return pv, buf, err
}

// release settles the collector's pending fold, if any, so the view
// stops keeping the changes it would have read.
func (c *Collector) release() {
	if c.pending {
		c.shared.view.unpin(c)
	}
}

// collectSwitch runs one switch's exchange chain: attempt, and on loss
// re-attempt after an exponentially backed-off delay until the retry
// budget runs out. resolve fires exactly once per chain.
func (c *Collector) collectSwitch(peer *faultPeer, sw topology.NodeID, seq uint32, attempt, bytesSoFar int, resolve func(ports []ctlmsg.PortState, bytes int, ok bool)) {
	ch := peer.ch
	q := c.query(sw)
	q.SeqNo = seq
	qb, err := q.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("dard: collector: marshal query: %v", err))
	}
	rb, wire, ok, err := ch.TryExchange(peer.agent, qb)
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
			c.collectSwitch(peer, sw, seq, attempt+1, bytes, resolve)
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

// FoldPVInto folds the per-link port state into the path state vector
// PV over an implicit path set: each path takes the state of its most
// congested link, with a zero-capacity (failed or dead-switch) link
// collapsing the path's BoNF to zero. It folds into pv's backing array
// (resized to ps.Len()) with buf as link scratch, so a monitor's
// steady-state fold allocates nothing once warm
// (TestAssembleSteadyStateAllocs). It returns the folded pv and the
// (possibly grown) buf; neither retains linkState.
func FoldPVInto(pv []PathState, buf []topology.LinkID, ps topology.PathSet, linkState *LinkState) ([]PathState, []topology.LinkID, error) {
	return foldPV(pv, buf, ps, linkReader{ports: linkState})
}

// foldPV is the one fold: FoldPVInto over the links r reads.
func foldPV(pv []PathState, buf []topology.LinkID, ps topology.PathSet, r linkReader) ([]PathState, []topology.LinkID, error) {
	n := ps.Len()
	if cap(pv) < n {
		pv = make([]PathState, n)
	} else {
		pv = pv[:n]
	}
	for i := 0; i < n; i++ {
		buf = ps.AppendLinks(i, buf[:0])
		st, err := foldPathState(buf, r, math.Inf(-1))
		if err != nil {
			return nil, buf, err
		}
		pv[i] = st
	}
	return pv, buf, nil
}

// foldPathState reduces one path's links to its bottleneck state. A
// path's BoNF only falls as its links fold in, so the fold stops at the
// first link that brings it to floor or below, returning the state so
// far: a caller that only wants paths above floor has its answer. A
// floor of -Inf folds every link.
func foldPathState(links []topology.LinkID, r linkReader, floor float64) (PathState, error) {
	st := PathState{Bandwidth: math.Inf(1), BoNF: math.Inf(1)}
	for _, l := range links {
		port, ok := r.ports.Get(l)
		if !ok {
			return st, fmt.Errorf("no switch reported state for link %d", l)
		}
		if r.view != nil && r.view.changed[l] > r.epoch {
			port = r.view.rewind(l, r.epoch)
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
			if st.BoNF <= floor {
				break
			}
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
