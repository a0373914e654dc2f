package dard

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/trace"
	"dard/internal/workload"
)

// A fault-free round folds from the controller's port view, which
// re-reads a switch only when its PortStamp moves, and the fold waits
// until something reads the path state vector. These tests hold the
// view to the wire exchange it replaces: DARD runs on both engines
// through arrivals, classification, moves, completions, link failures
// and repairs and a flow-engine checkpoint, and after every step a
// collector for every ordered ToR pair, all sharing DARD's view, must
// hold exactly the port state and byte count a wire round carries. Each
// pair's fold is left pending until the next step, after more changes
// have landed, and must then equal the fold of the wire round taken at
// its tick.

// wireOracle is the fault-free round as a wire exchange, the way every
// round ran before the port view: per covering switch, marshal the
// collector's query, serve it, parse the reply and record its ports.
// Each agent is built fresh, so it has no reply cache and reads the host
// itself. The oracle replays the sequence number of the round the view
// just ran instead of advancing it.
type wireOracle struct {
	links        *LinkState
	query, reply []byte
	msg          ctlmsg.Reply
}

// assemble runs c's round against env and returns the link table and
// the bytes exchanged; the table is valid until the next call.
func (o *wireOracle) assemble(env sched.Host, c *Collector) (*LinkState, int, error) {
	if o.links == nil {
		o.links = NewLinkState(env.Topo().Graph().NumLinks())
	}
	o.links.Reset()
	total := 0
	for _, sw := range c.switches {
		agent, err := ctlmsg.NewSwitchAgent(env, sw)
		if err != nil {
			return nil, 0, err
		}
		if o.query, err = c.query(sw).AppendBinary(o.query[:0]); err != nil {
			return nil, 0, err
		}
		if o.reply, err = agent.Serve(o.reply[:0], o.query); err != nil {
			return nil, 0, err
		}
		total += len(o.query) + len(o.reply)
		if err := c.parseReply(&o.msg, o.reply); err != nil {
			return nil, 0, err
		}
		for _, p := range o.msg.Ports {
			if err := o.links.Set(p); err != nil {
				return nil, 0, err
			}
		}
	}
	return o.links, total, nil
}

// viewScript is one event sequence on a p=4 fat tree with 100 Mbit/s
// links: flows (the first arriving at t=0), path moves a fixed delay
// after a flow's arrival, and switch-to-switch link failures, each
// repaired later.
type viewScript struct {
	ft          *topology.FatTree
	flows       []workload.Flow
	moves       []viewMove
	linkEvents  []topology.LinkEvent
	elephantAge float64
	pauseAfter  int64 // flow-engine checkpoint boundary, in events
}

// viewMove moves a flow to path Path modulo its path count, After
// seconds after its arrival, if it is still active then.
type viewMove struct {
	Flow  int
	After float64
	Path  int
}

func newViewScript(tb testing.TB, seed int64) *viewScript {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nHosts := len(ft.Hosts())
	sc := &viewScript{ft: ft, elephantAge: 0.05 + 0.25*rng.Float64()}
	nFlows := 3 + rng.Intn(10)
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(nHosts)
		dst := (src + 1 + rng.Intn(nHosts-1)) % nHosts
		arrival := 0.0
		if i > 0 {
			arrival = sc.flows[i-1].Arrival + 0.2*rng.Float64()
		}
		sc.flows = append(sc.flows, workload.Flow{
			ID: i, Src: src, Dst: dst, SizeBits: 1e6 + 4e7*rng.Float64(), Arrival: arrival,
		})
		for m := rng.Intn(3); m > 0; m-- {
			sc.moves = append(sc.moves, viewMove{Flow: i, After: 0.6 * rng.Float64(), Path: rng.Intn(4)})
		}
	}
	g := ft.Graph()
	for n := rng.Intn(3); n > 0; n-- {
		l := topology.LinkID(rng.Intn(g.NumLinks()))
		if !g.IsSwitchLink(l) {
			continue // a failed host link strands its flows for good
		}
		at := 0.01 + rng.Float64()
		sc.linkEvents = append(sc.linkEvents,
			topology.LinkEvent{At: at, Link: l, Down: true},
			topology.LinkEvent{At: at + 0.05 + 0.5*rng.Float64(), Link: l, Down: false})
	}
	sc.pauseAfter = 1 + rng.Int63n(int64(3*nFlows))
	return sc
}

// viewOptions makes DARD poll and schedule often enough to shift flows
// within a script's couple of seconds.
var viewOptions = Options{QueryInterval: 0.1, ScheduleInterval: 0.2, ScheduleJitter: 0.2, Delta: 1e6}

// Timer tags of viewChecker, above DARD's own: a scripted move (A = its
// index), the check that follows a scripted link event, and the
// periodic check that also sees DARD's own moves.
const (
	tagViewMove = sched.TagControllerBase + 8 + iota
	tagViewLinkCheck
	tagViewTick
)

// viewTickInterval spaces the periodic checks.
const viewTickInterval = 0.05

// viewChecker is DARD plus the script's moves and a view check after
// every lifecycle callback, move, link event and periodic tick.
type viewChecker struct {
	*Controller
	tb     testing.TB
	sc     *viewScript
	pairs  []viewPair
	oracle wireOracle
	buf    []topology.LinkID
	tally  viewTally
}

// viewPair is one ordered ToR pair's collector, its path set and the
// fold of the wire round taken at its last check, which its pending
// fold must reproduce.
type viewPair struct {
	coll     *Collector
	ps       topology.PathSet
	want     []PathState
	wantDead []bool
	got      []PathState
}

// viewTally counts the checks run, the port records they compared that
// carried an elephant or a failed port, the deferred folds compared and
// those among them whose vector a fold of the view as it stands would
// have got wrong, the checkpoint restores, and DARD's own shifts.
type viewTally struct{ checks, elephants, downPorts, folds, rewound, restores, shifts int }

func (t *viewTally) add(o viewTally) {
	t.checks += o.checks
	t.elephants += o.elephants
	t.downPorts += o.downPorts
	t.folds += o.folds
	t.rewound += o.rewound
	t.restores += o.restores
	t.shifts += o.shifts
}

func newViewChecker(tb testing.TB, sc *viewScript) *viewChecker {
	return &viewChecker{Controller: New(viewOptions), tb: tb, sc: sc}
}

func (c *viewChecker) Arrived(h sched.Host, f sched.Flow) {
	c.Controller.Arrived(h, f)
	for i, m := range c.sc.moves {
		if m.Flow == f.ID {
			h.AfterRef(m.After, sched.TimerRef{Tag: tagViewMove, A: int64(i)}, c.moveFn(h, i))
		}
	}
	if f.ID == 0 { // arrives at t=0, before any link event
		for i, ev := range c.sc.linkEvents {
			h.AfterRef(ev.At, sched.TimerRef{Tag: tagViewLinkCheck, A: int64(i)}, func() { c.check(h) })
		}
		h.AfterRef(viewTickInterval, sched.TimerRef{Tag: tagViewTick}, c.tickFn(h))
	}
	c.check(h)
}

func (c *viewChecker) Elephant(h sched.Host, f sched.Flow) {
	c.Controller.Elephant(h, f)
	c.check(h)
}

func (c *viewChecker) Departed(h sched.Host, f sched.Flow) {
	c.Controller.Departed(h, f)
	c.check(h)
}

func (c *viewChecker) moveFn(h sched.Host, i int) func() {
	return func() {
		m := c.sc.moves[i]
		if !h.FlowActive(m.Flow) {
			return
		}
		f, _ := h.FlowByID(m.Flow)
		if err := h.SetFlowPath(m.Flow, m.Path%h.PathSet(f.SrcToR, f.DstToR).Len()); err != nil {
			c.tb.Fatal(err)
		}
		c.check(h)
	}
}

// tickFn checks and re-arms while any flow is still to arrive or active.
func (c *viewChecker) tickFn(h sched.Host) func() {
	return func() {
		c.check(h)
		for _, f := range c.sc.flows {
			if f.Arrival > h.Now() || h.FlowActive(f.ID) {
				h.AfterRef(viewTickInterval, sched.TimerRef{Tag: tagViewTick}, c.tickFn(h))
				return
			}
		}
	}
}

// RebuildTimer rebuilds the checker's own timers and hands DARD's back
// to the controller.
func (c *viewChecker) RebuildTimer(h sched.Host, ref sched.TimerRef) (func(), error) {
	switch ref.Tag {
	case tagViewMove:
		return c.moveFn(h, int(ref.A)), nil
	case tagViewLinkCheck:
		return func() { c.check(h) }, nil
	case tagViewTick:
		return c.tickFn(h), nil
	}
	return c.Controller.RebuildTimer(h, ref)
}

// viewPairs returns a collector for every ordered pair of distinct
// ToRs on h, the one host the checker runs on, built by DARD's
// controller so they share its port view.
func (c *viewChecker) viewPairs(h sched.Host) []viewPair {
	if c.pairs == nil {
		net := h.Topo()
		tors := topology.AttachSwitches(net)
		for _, src := range tors {
			for _, dst := range tors {
				if src != dst {
					id := uint64(src)<<32 | uint64(dst)
					ps := net.PathSet(src, dst)
					c.pairs = append(c.pairs, viewPair{coll: c.newCollector(h, id, ps), ps: ps})
				}
			}
		}
	}
	return c.pairs
}

// checkAgainst checks every pair on h. It first runs the pair's pending
// fold, pinned at the previous check, and requires it to equal, bit for
// bit and in its dead mask, the wire round's fold taken then. It then
// runs the pair's view round, requires the wire oracle, run against
// want, to carry the same state for every link the round's switches
// report and the same byte count, and keeps the wire round's fold for
// the next check. want is h except right after a restore, when it is
// the paused run the restored one resumes.
func (c *viewChecker) checkAgainst(h, want sched.Host) {
	g := h.Topo().Graph()
	for i := range c.viewPairs(h) {
		pair := &c.pairs[i]
		coll := pair.coll
		if pair.want != nil {
			c.checkPending(h, pair)
		}
		if err := coll.assembleView(); err != nil {
			c.tb.Fatal(err)
		}
		view := coll.shared.view.ports
		wire, wireBytes, err := c.oracle.assemble(want, coll)
		if err != nil {
			c.tb.Fatal(err)
		}
		if coll.wireBytes != wireBytes {
			c.tb.Fatalf("t=%g monitor %x: view round counts %d bytes, wire round %d", h.Now(), coll.monitorID, coll.wireBytes, wireBytes)
		}
		for _, sw := range coll.switches {
			for _, l := range g.Out(sw) {
				got, gok := view.Get(l)
				exp, eok := wire.Get(l)
				if !gok || !eok || got != exp {
					c.tb.Fatalf("t=%g monitor %x switch %d link %d: view %+v (%v), wire %+v (%v)",
						h.Now(), coll.monitorID, sw, l, got, gok, exp, eok)
				}
				if exp.ElephantFlows > 0 {
					c.tally.elephants++
				}
				if exp.BandwidthMbps == 0 {
					c.tally.downPorts++
				}
			}
		}
		if pair.want, c.buf, err = FoldPVInto(pair.want[:0], c.buf, pair.ps, wire); err != nil {
			c.tb.Fatal(err)
		}
		pair.wantDead = MarkDeadPaths(trace.Nop{}, 0, 0, pair.want, pair.wantDead)
	}
	c.tally.checks++
}

// checkPending runs pair's pending fold and compares it with the wire
// fold of its tick. It counts the fold as rewound when a fold of the
// view as it stands now differs, so the undo log decided the result.
func (c *viewChecker) checkPending(h sched.Host, pair *viewPair) {
	coll := pair.coll
	if !coll.pending {
		c.tb.Fatalf("t=%g monitor %x: fold no longer pending", h.Now(), coll.monitorID)
	}
	var err error
	if pair.got, c.buf, err = coll.foldPending(pair.got[:0], c.buf, pair.ps); err != nil {
		c.tb.Fatal(err)
	}
	if !samePV(pair.got, pair.want) {
		c.tb.Fatalf("t=%g monitor %x: deferred fold %v, wire fold at its tick %v", h.Now(), coll.monitorID, pair.got, pair.want)
	}
	if dead := MarkDeadPaths(trace.Nop{}, 0, 0, pair.got, nil); !slices.Equal(dead, pair.wantDead) {
		c.tb.Fatalf("t=%g monitor %x: deferred dead mask %v, wire %v", h.Now(), coll.monitorID, dead, pair.wantDead)
	}
	now, _, err := FoldPVInto(nil, nil, pair.ps, coll.shared.view.ports)
	if err != nil {
		c.tb.Fatal(err)
	}
	if !samePV(now, pair.want) {
		c.tally.rewound++
	}
	c.tally.folds++
}

// samePV reports whether two path state vectors agree bit for bit.
func samePV(a, b []PathState) bool {
	return slices.EqualFunc(a, b, func(x, y PathState) bool {
		return math.Float64bits(x.Bandwidth) == math.Float64bits(y.Bandwidth) &&
			x.Flows == y.Flows && math.Float64bits(x.BoNF) == math.Float64bits(y.BoNF)
	})
}

func (c *viewChecker) check(h sched.Host) { c.checkAgainst(h, h) }

// runViewScript runs the script under DARD on both engines with the view
// checked throughout. On the flow engine it also checkpoints at the
// script's pause boundary: a fresh controller's view of the restored run
// must match the paused run's wire state, and keep matching to the end.
func runViewScript(tb testing.TB, sc *viewScript) (flow, packet viewTally) {
	tb.Helper()
	cfg := flowsim.Config{
		Net: sc.ft, Flows: sc.flows, Seed: 1, ElephantAge: sc.elephantAge,
		LinkEvents: sc.linkEvents, MaxTime: 60,
	}
	fc := newViewChecker(tb, sc)
	cfg.Controller = fc
	s, err := flowsim.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.PauseAfter(sc.pauseAfter)
	if _, err := s.Run(); errors.Is(err, flowsim.ErrPaused) {
		blob, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		resumed := newViewChecker(tb, sc)
		cfg.Controller = resumed
		rs, err := flowsim.Restore(cfg, blob)
		if err != nil {
			tb.Fatal(err)
		}
		resumed.checkAgainst(rs, s)
		if _, err := rs.Run(); err != nil {
			tb.Fatal(err)
		}
		fc.tally.add(resumed.tally)
		fc.tally.shifts += resumed.Shifts
		fc.tally.restores++
	} else if err != nil {
		tb.Fatal(err)
	}
	fc.tally.shifts += fc.Shifts

	pc := newViewChecker(tb, sc)
	rt, err := psim.NewRuntime(psim.Config{
		Topo: sc.ft, Policy: pc, Flows: sc.flows, Seed: 1, ElephantAge: sc.elephantAge,
		LinkEvents: sc.linkEvents, MaxTime: 60,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
	pc.tally.shifts += pc.Shifts
	return fc.tally, pc.tally
}

// TestViewMatchesWire runs a handful of scripts on both engines. Across
// them each engine's checks must have compared elephant counts, failed
// ports and deferred folds, some of which only the undo log got right,
// DARD must have shifted flows itself, and the flow engine must have
// been checkpointed and restored.
func TestViewMatchesWire(t *testing.T) {
	var flow, packet viewTally
	for seed := int64(1); seed <= 8; seed++ {
		f, p := runViewScript(t, newViewScript(t, seed))
		flow.add(f)
		packet.add(p)
	}
	for _, e := range []struct {
		name string
		viewTally
	}{{"flow", flow}, {"packet", packet}} {
		t.Logf("%s engine: %+v", e.name, e.viewTally)
		if e.checks == 0 || e.elephants == 0 || e.downPorts == 0 || e.rewound == 0 || e.shifts == 0 {
			t.Errorf("%s engine: %+v; want checks, elephant ports, failed ports, rewound folds and shifts all non-zero",
				e.name, e.viewTally)
		}
	}
	if flow.restores == 0 {
		t.Error("no script paused the flow engine before it finished, so no restore was checked")
	}
}

// FuzzViewMatchesWire explores event sequences beyond the fixed seeds:
// on both engines, and across a flow-engine checkpoint, every view round
// must carry what the wire round carries, and every deferred fold must
// equal the wire fold taken at its tick.
func FuzzViewMatchesWire(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runViewScript(t, newViewScript(t, seed))
	})
}
