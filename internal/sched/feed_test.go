package sched_test

import (
	"errors"
	"math/rand"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/psim"
	"dard/internal/sched"
	"dard/internal/snap"
	"dard/internal/topology"
	"dard/internal/workload"
)

// The port-change feed is correct only if every engine marks a link
// whenever its elephant count or capacity changes. These tests drive
// both engines through arrivals, elephant classification, path moves,
// completions and link failures and repairs, and after every step
// compare a port table kept only by draining the feed with
// ctlmsg.ReadPort of every link, which reads the engine itself.

// feedScript is one event sequence on a p=4 fat tree with 100 Mbit/s
// links: flows (the first arriving at t=0), path moves a fixed delay
// after a flow's arrival, and switch-to-switch link failures, each
// repaired later.
type feedScript struct {
	ft          *topology.FatTree
	flows       []workload.Flow
	moves       []feedMove
	linkEvents  []topology.LinkEvent
	elephantAge float64
	pauseAfter  int64 // flow-engine checkpoint boundary, in events
}

// feedMove moves a flow to path Path modulo its path count, After
// seconds after its arrival, if it is still active then.
type feedMove struct {
	Flow  int
	After float64
	Path  int
}

func newFeedScript(tb testing.TB, seed int64) *feedScript {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nHosts := len(ft.Hosts())
	sc := &feedScript{ft: ft, elephantAge: 0.05 + 0.25*rng.Float64()}
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
			sc.moves = append(sc.moves, feedMove{Flow: i, After: 0.6 * rng.Float64(), Path: rng.Intn(4)})
		}
	}
	g := ft.Graph()
	for n := rng.Intn(3); n > 0; n-- {
		l := topology.LinkID(rng.Intn(g.NumLinks()))
		if link := g.Link(l); g.Node(link.From).Kind == topology.Host || g.Node(link.To).Kind == topology.Host {
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

// Timer tags of feedChecker: a scripted move (A = its index) and the
// check that follows a scripted link event.
const (
	tagMove = sched.TagControllerBase + iota
	tagLinkCheck
)

// feedChecker is the policy both engines run the script under: ECMP
// placement, the script's moves, and a feed check after every lifecycle
// callback, move and link event. It is its host's only drain, and keeps
// the port table the drained links rebuild.
type feedChecker struct {
	tb      testing.TB
	sc      *feedScript
	host    sched.Host
	ports   []ctlmsg.PortState
	changed []topology.LinkID
	tally
}

// tally counts the checks run, the links they drained after the full
// first drain, the port records they compared that carried an elephant
// or a failed port, and the checkpoint restores.
type tally struct{ checks, fed, elephants, downPorts, restores int }

func (t *tally) add(o tally) {
	t.checks += o.checks
	t.fed += o.fed
	t.elephants += o.elephants
	t.downPorts += o.downPorts
	t.restores += o.restores
}

func (c *feedChecker) Name() string { return "feed-check" }

func (c *feedChecker) InitialPath(h sched.Host, f sched.Flow) int {
	return sched.ECMP{}.InitialPath(h, f)
}

func (c *feedChecker) Arrived(h sched.Host, f sched.Flow) {
	c.check(h)
	for i, m := range c.sc.moves {
		if m.Flow == f.ID {
			h.AfterRef(m.After, sched.TimerRef{Tag: tagMove, A: int64(i)}, c.moveFn(h, i))
		}
	}
	if f.ID == 0 { // arrives at t=0, before any link event
		for i, ev := range c.sc.linkEvents {
			h.AfterRef(ev.At, sched.TimerRef{Tag: tagLinkCheck, A: int64(i)}, func() { c.check(h) })
		}
	}
}

func (c *feedChecker) Elephant(h sched.Host, _ sched.Flow) { c.check(h) }
func (c *feedChecker) Departed(h sched.Host, _ sched.Flow) { c.check(h) }

func (c *feedChecker) moveFn(h sched.Host, i int) func() {
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

// The checker holds no run state beyond its script, so a checkpoint
// carries none; its timers rebuild from their tags, and a restored
// run's feed starts with a full drain.
func (c *feedChecker) SnapshotState(sched.Host, *snap.Encoder) error { return nil }
func (c *feedChecker) RestoreState(sched.Host, *snap.Decoder) error  { return nil }

func (c *feedChecker) RebuildTimer(h sched.Host, ref sched.TimerRef) (func(), error) {
	switch ref.Tag {
	case tagMove:
		return c.moveFn(h, int(ref.A)), nil
	case tagLinkCheck:
		return func() { c.check(h) }, nil
	}
	return nil, errors.New("feed-check: unknown timer tag")
}

// checkAgainst drains h's feed into the checker's port table and
// requires every link's entry to equal ReadPort of want, which is h
// except right after a restore, when it is the paused run the restored
// one resumes.
func (c *feedChecker) checkAgainst(h, want sched.Host) {
	first := c.host != h
	if first {
		c.host = h
		c.ports = make([]ctlmsg.PortState, h.Topo().Graph().NumLinks())
	}
	c.changed = h.AppendChangedPorts(c.changed[:0])
	for _, l := range c.changed {
		c.ports[l] = ctlmsg.ReadPort(h, l)
	}
	if !first {
		c.fed += len(c.changed)
	}
	for l, got := range c.ports {
		exp := ctlmsg.ReadPort(want, topology.LinkID(l))
		if got != exp {
			c.tb.Fatalf("t=%g link %d: drained table holds %+v, ReadPort %+v", h.Now(), l, got, exp)
		}
		if exp.ElephantFlows > 0 {
			c.elephants++
		}
		if exp.BandwidthMbps == 0 {
			c.downPorts++
		}
	}
	c.checks++
}

func (c *feedChecker) check(h sched.Host) { c.checkAgainst(h, h) }

// runFeedScript runs the script on both engines under feedChecker. On
// the flow engine it also checkpoints at the script's pause boundary: a
// fresh checker's table of the restored run must match the paused run,
// and keep matching to the end.
func runFeedScript(tb testing.TB, sc *feedScript) (flow, packet tally) {
	tb.Helper()
	cfg := flowsim.Config{
		Net: sc.ft, Arrivals: workload.List(sc.flows), Seed: 1, ElephantAge: sc.elephantAge,
		LinkEvents: sc.linkEvents, MaxTime: 60,
	}
	fc := &feedChecker{tb: tb, sc: sc}
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
		resumed := &feedChecker{tb: tb, sc: sc}
		cfg.Controller = resumed
		cfg.Arrivals = workload.List(sc.flows)
		rs, err := flowsim.Restore(cfg, blob)
		if err != nil {
			tb.Fatal(err)
		}
		resumed.checkAgainst(rs, s)
		if _, err := rs.Run(); err != nil {
			tb.Fatal(err)
		}
		fc.add(resumed.tally)
		fc.restores++
	} else if err != nil {
		tb.Fatal(err)
	}

	pc := &feedChecker{tb: tb, sc: sc}
	rt, err := psim.NewRuntime(psim.Config{
		Topo: sc.ft, Policy: pc, Arrivals: workload.List(sc.flows), Seed: 1, ElephantAge: sc.elephantAge,
		LinkEvents: sc.linkEvents, MaxTime: 60,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
	return fc.tally, pc.tally
}

// TestPortFeedMatchesReadPort runs a handful of scripts on both engines.
// Across them each engine's feed must have named changed links after
// its first drain, its checks must have compared elephant counts and
// failed ports, so both halves of the port state went through the
// feed, and the flow engine must have been checkpointed and restored.
func TestPortFeedMatchesReadPort(t *testing.T) {
	var flow, packet tally
	for seed := int64(1); seed <= 8; seed++ {
		f, p := runFeedScript(t, newFeedScript(t, seed))
		flow.add(f)
		packet.add(p)
	}
	for _, e := range []struct {
		name string
		tally
	}{{"flow", flow}, {"packet", packet}} {
		t.Logf("%s engine: %+v", e.name, e.tally)
		if e.checks == 0 || e.fed == 0 || e.elephants == 0 || e.downPorts == 0 {
			t.Errorf("%s engine: %+v; want checks, drained links, elephant ports and failed ports all non-zero",
				e.name, e.tally)
		}
	}
	if flow.restores == 0 {
		t.Error("no script paused the flow engine before it finished, so no restore was checked")
	}
}

// FuzzPortFeed explores event sequences beyond the fixed seeds: on both
// engines, and across a flow-engine checkpoint, the table kept by
// draining the feed must equal ReadPort of every link after every step.
func FuzzPortFeed(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runFeedScript(t, newFeedScript(t, seed))
	})
}
