package ctlmsg_test

import (
	"bytes"
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

// The reply cache is correct only if every engine moves a switch's
// PortStamp whenever one of its ports changes. These tests drive both
// engines through arrivals, elephant classification, path moves,
// completions and link failures and repairs, and after every step
// compare each switch's long-lived agent, which replays its cached reply
// while the stamp stands, with a freshly built one, which has no cache.

// cacheScript is one event sequence on a p=4 fat tree with 100 Mbit/s
// links: flows (the first arriving at t=0), path moves a fixed delay
// after a flow's arrival, and switch-to-switch link failures, each
// repaired later.
type cacheScript struct {
	ft          *topology.FatTree
	flows       []workload.Flow
	moves       []cacheMove
	linkEvents  []topology.LinkEvent
	elephantAge float64
	pauseAfter  int64 // flow-engine checkpoint boundary, in events
}

// cacheMove moves a flow to path Path modulo its path count, After
// seconds after its arrival, if it is still active then.
type cacheMove struct {
	Flow  int
	After float64
	Path  int
}

func newCacheScript(tb testing.TB, seed int64) *cacheScript {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	nHosts := len(ft.Hosts())
	sc := &cacheScript{ft: ft, elephantAge: 0.05 + 0.25*rng.Float64()}
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
			sc.moves = append(sc.moves, cacheMove{Flow: i, After: 0.6 * rng.Float64(), Path: rng.Intn(4)})
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

// Timer tags of cacheChecker: a scripted move (A = its index) and the
// check that follows a scripted link event.
const (
	tagMove = sched.TagControllerBase + iota
	tagLinkCheck
)

// cacheChecker is the policy both engines run the script under: ECMP
// placement, the script's moves, and a cache check after every
// lifecycle callback, move and link event. It keeps one long-lived
// agent per switch for the host it last checked.
type cacheChecker struct {
	tb     testing.TB
	sc     *cacheScript
	host   sched.Host
	agents []*ctlmsg.SwitchAgent
	seq    uint32
	query  []byte
	long   []byte
	fresh  []byte
	reply  ctlmsg.Reply
	tally
}

// tally counts the checks run, the port records they compared that
// carried an elephant or a failed port, and the checkpoint restores.
type tally struct{ checks, elephants, downPorts, restores int }

func (t *tally) add(o tally) {
	t.checks += o.checks
	t.elephants += o.elephants
	t.downPorts += o.downPorts
	t.restores += o.restores
}

func (c *cacheChecker) Name() string { return "cache-check" }

func (c *cacheChecker) InitialPath(h sched.Host, f sched.Flow) int {
	return sched.ECMP{}.InitialPath(h, f)
}

func (c *cacheChecker) Arrived(h sched.Host, f sched.Flow) {
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

func (c *cacheChecker) Elephant(h sched.Host, _ sched.Flow) { c.check(h) }
func (c *cacheChecker) Departed(h sched.Host, _ sched.Flow) { c.check(h) }

func (c *cacheChecker) moveFn(h sched.Host, i int) func() {
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
// carries none; its timers rebuild from their tags.
func (c *cacheChecker) SnapshotState(sched.Host, *snap.Encoder) error { return nil }
func (c *cacheChecker) RestoreState(sched.Host, *snap.Decoder) error  { return nil }

func (c *cacheChecker) RebuildTimer(h sched.Host, ref sched.TimerRef) (func(), error) {
	switch ref.Tag {
	case tagMove:
		return c.moveFn(h, int(ref.A)), nil
	case tagLinkCheck:
		return func() { c.check(h) }, nil
	}
	return nil, errors.New("cache-check: unknown timer tag")
}

// nextQuery marshals the next query for sw into the checker's buffer.
func (c *cacheChecker) nextQuery(sw topology.NodeID) []byte {
	c.seq++
	var err error
	c.query, err = ctlmsg.Query{MonitorID: 1, SwitchID: uint32(sw), SeqNo: c.seq}.AppendBinary(c.query[:0])
	if err != nil {
		c.tb.Fatal(err)
	}
	return c.query
}

// serve appends agent's reply to query to dst.
func serve(tb testing.TB, dst []byte, agent *ctlmsg.SwitchAgent, query []byte) []byte {
	dst, err := agent.Serve(dst, query)
	if err != nil {
		tb.Fatal(err)
	}
	return dst
}

// check serves every switch from its long-lived agent and from a fresh
// one, with the same query, and fails on any byte of difference. The
// long-lived agent answers from the cache it built at an earlier check
// unless the switch's stamp has moved since.
func (c *cacheChecker) check(h sched.Host) {
	g := h.Topo().Graph()
	if c.host != h {
		c.host = h
		c.agents = make([]*ctlmsg.SwitchAgent, g.NumNodes())
	}
	for n := range c.agents {
		sw := topology.NodeID(n)
		if g.Node(sw).Kind == topology.Host {
			continue
		}
		fresh, err := ctlmsg.NewSwitchAgent(h, sw)
		if err != nil {
			c.tb.Fatal(err)
		}
		if c.agents[sw] == nil {
			if c.agents[sw], err = ctlmsg.NewSwitchAgent(h, sw); err != nil {
				c.tb.Fatal(err)
			}
		}
		q := c.nextQuery(sw)
		c.long = serve(c.tb, c.long[:0], c.agents[sw], q)
		c.fresh = serve(c.tb, c.fresh[:0], fresh, q)
		if !bytes.Equal(c.long, c.fresh) {
			c.tb.Fatalf("t=%g switch %d: cached reply\n %x\nfresh reply\n %x", h.Now(), sw, c.long, c.fresh)
		}
		if err := c.reply.UnmarshalBinary(c.fresh); err != nil {
			c.tb.Fatal(err)
		}
		for _, p := range c.reply.Ports {
			if p.ElephantFlows > 0 {
				c.elephants++
			}
			if p.BandwidthMbps == 0 {
				c.downPorts++
			}
		}
	}
	c.checks++
}

// runCacheScript runs the script on both engines under cacheChecker. On
// the flow engine it also checkpoints at the script's pause boundary:
// the restored run must serve what the paused one serves, and its own
// long-lived agents must keep matching fresh ones to the end.
func runCacheScript(tb testing.TB, sc *cacheScript) (flow, packet tally) {
	tb.Helper()
	cfg := flowsim.Config{
		Net: sc.ft, Flows: sc.flows, Seed: 1, ElephantAge: sc.elephantAge,
		LinkEvents: sc.linkEvents, MaxTime: 60,
	}
	fc := &cacheChecker{tb: tb, sc: sc}
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
		resumed := &cacheChecker{tb: tb, sc: sc}
		cfg.Controller = resumed
		rs, err := flowsim.Restore(cfg, blob)
		if err != nil {
			tb.Fatal(err)
		}
		g := sc.ft.Graph()
		for n := 0; n < g.NumNodes(); n++ {
			sw := topology.NodeID(n)
			if g.Node(sw).Kind == topology.Host {
				continue
			}
			paused, err := ctlmsg.NewSwitchAgent(s, sw)
			if err != nil {
				tb.Fatal(err)
			}
			restored, err := ctlmsg.NewSwitchAgent(rs, sw)
			if err != nil {
				tb.Fatal(err)
			}
			q := fc.nextQuery(sw)
			want := serve(tb, nil, paused, q)
			if got := serve(tb, nil, restored, q); !bytes.Equal(got, want) {
				tb.Fatalf("switch %d: restored run serves\n %x\npaused run served\n %x", sw, got, want)
			}
		}
		resumed.check(rs)
		if _, err := rs.Run(); err != nil {
			tb.Fatal(err)
		}
		fc.add(resumed.tally)
		fc.restores++
	} else if err != nil {
		tb.Fatal(err)
	}

	pc := &cacheChecker{tb: tb, sc: sc}
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
	return fc.tally, pc.tally
}

// TestServeCacheEquivalence runs a handful of scripts on both engines.
// Across them each engine's checks must have compared elephant counts
// and failed ports, so both halves of the port state went through the
// cache, and the flow engine must have been checkpointed and restored.
func TestServeCacheEquivalence(t *testing.T) {
	var flow, packet tally
	for seed := int64(1); seed <= 8; seed++ {
		f, p := runCacheScript(t, newCacheScript(t, seed))
		flow.add(f)
		packet.add(p)
	}
	for _, e := range []struct {
		name string
		tally
	}{{"flow", flow}, {"packet", packet}} {
		t.Logf("%s engine: %+v", e.name, e.tally)
		if e.checks == 0 || e.elephants == 0 || e.downPorts == 0 {
			t.Errorf("%s engine: %d checks compared %d elephant ports and %d failed ports; want all non-zero",
				e.name, e.checks, e.elephants, e.downPorts)
		}
	}
	if flow.restores == 0 {
		t.Error("no script paused the flow engine before it finished, so no restore was checked")
	}
}

// FuzzServeCache explores event sequences beyond the fixed seeds: on
// both engines, and across a flow-engine checkpoint, every cached reply
// must equal a fresh agent's.
func FuzzServeCache(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runCacheScript(t, newCacheScript(t, seed))
	})
}
