package tcp

import (
	"math"
	"testing"

	"dard/internal/simnet"
	"dard/internal/topology"
)

// rig wires a p=4 fat-tree, a dispatcher, and a net together.
type rig struct {
	ft *topology.FatTree
	n  *simnet.Net
	d  *Dispatcher
}

func newRig(t *testing.T, bufferPackets int) *rig {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4, LinkCapacity: 100e6}) // 100 Mbps testbed speed
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher()
	n, err := simnet.NewNet(ft, bufferPackets, 1500*8, d.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{ft: ft, n: n, d: d}
}

func (r *rig) route(src, dst, pathIdx int) []topology.LinkID {
	hs := r.ft.Hosts()
	s, d := hs[src], hs[dst]
	route := []topology.LinkID{r.ft.HostUplink(s)}
	route = r.ft.PathSet(r.ft.ToROf(s), r.ft.ToROf(d)).AppendLinks(pathIdx, route)
	route = append(route, r.ft.HostDownlink(d))
	return route
}

func (r *rig) transfer(t *testing.T, id, src, dst, pathIdx int, bytes float64) *Conn {
	t.Helper()
	c, err := NewConn(r.n, id, r.route(src, dst, pathIdx), bytes*8, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.d.Register(c)
	return c
}

func TestSingleTransferCompletes(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 1<<20) // 1 MB
	c.Start()
	r.n.K.Run(60)
	if !c.Done() {
		t.Fatal("transfer did not complete")
	}
	// 1 MB at 100 Mbps is ~84 ms of pure serialization; slow start and
	// headers add overhead. Sanity: between 80 ms and 1 s.
	tt := c.TransferTime()
	if tt < 0.08 || tt > 1.0 {
		t.Errorf("transfer time = %g s, expected ~0.1-0.5 s", tt)
	}
	// Slow start probes until loss, so a few retransmissions are normal;
	// anything beyond ~20%% means congestion control is broken.
	if got := c.RetxRate(); got > 0.2 {
		t.Errorf("retx rate = %g, want < 0.2", got)
	}
}

func TestNoRetxWithCappedSsthresh(t *testing.T) {
	r := newRig(t, 0)
	// With ssthresh capped below the queue headroom, the window never
	// overruns the buffer: a clean lossless transfer.
	c, err := NewConn(r.n, 1, r.route(0, 8, 0), 8*(1<<20), Options{InitialSsthresh: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.d.Register(c)
	c.Start()
	r.n.K.Run(60)
	if !c.Done() {
		t.Fatal("transfer did not complete")
	}
	if c.Retx != 0 {
		t.Errorf("capped-window transfer retransmitted %d segments", c.Retx)
	}
}

func TestThroughputApproachesLineRate(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 8<<20) // 8 MB
	c.Start()
	r.n.K.Run(60)
	if !c.Done() {
		t.Fatal("transfer did not complete")
	}
	goodput := 8 * (1 << 20) * 8 / c.TransferTime() // bits/s
	if goodput < 80e6 {
		t.Errorf("goodput = %.1f Mbps, want > 80 Mbps of the 100 Mbps link", goodput/1e6)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	r := newRig(t, 0)
	// Two flows from different hosts forced onto the same core path
	// collide on aggr->core: each should get roughly half.
	c1 := r.transfer(t, 1, 0, 8, 0, 4<<20)
	c2 := r.transfer(t, 2, 1, 9, 0, 4<<20)
	c1.Start()
	c2.Start()
	r.n.K.Run(60)
	if !c1.Done() || !c2.Done() {
		t.Fatal("transfers did not complete")
	}
	// Alone each takes ~0.34 s; the shared 100 Mbps bottleneck needs at
	// least 0.67 s to carry both, so the later finisher proves sharing.
	later := math.Max(c1.TransferTime(), c2.TransferTime())
	if later < 0.6 || later > 2.5 {
		t.Errorf("later finisher = %g s, want ~0.7-1.3 s (shared bottleneck)", later)
	}
	// Congestion means drops means retransmissions.
	if c1.Retx+c2.Retx == 0 {
		t.Error("colliding flows should retransmit at least once")
	}
}

func TestDisjointPathsNoInterference(t *testing.T) {
	r := newRig(t, 0)
	c1 := r.transfer(t, 1, 0, 8, 0, 4<<20)
	c2 := r.transfer(t, 2, 1, 9, 3, 4<<20) // different core
	c1.Start()
	c2.Start()
	r.n.K.Run(60)
	for _, c := range []*Conn{c1, c2} {
		if !c.Done() {
			t.Fatal("transfer did not complete")
		}
		if tt := c.TransferTime(); tt > 1.0 {
			t.Errorf("flow %d on a private path took %g s, want < 1 s", c.ID(), tt)
		}
	}
}

func TestRouteSwitchMidFlow(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 4<<20)
	c.Start()
	// Switch to another core after 0.2 s, mid transfer.
	r.n.K.After(0.2, func() { c.SetRoute(r.route(0, 8, 2)) })
	r.n.K.Run(60)
	if !c.Done() {
		t.Fatal("transfer did not complete after path switch")
	}
	if c.PathSwitches != 1 {
		t.Errorf("PathSwitches = %d, want 1", c.PathSwitches)
	}
	if tt := c.TransferTime(); tt > 2.0 {
		t.Errorf("transfer time after switch = %g s, too slow", tt)
	}
}

func TestSetRouteSameRouteNoCount(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 1<<18)
	c.Start()
	c.SetRoute(r.route(0, 8, 0))
	if c.PathSwitches != 0 {
		t.Error("identical route counted as a switch")
	}
}

// TestPerPacketSplittingCausesRetx is the mechanism behind Figure 14:
// spraying one flow's packets across paths with different queue depths
// reorders segments, triggers duplicate ACKs, and inflates the
// retransmission rate relative to single-path transfer.
func TestPerPacketSplittingCausesRetx(t *testing.T) {
	r := newRig(t, 0)

	// Background load to make path 0 visibly slower than path 3.
	bg := r.transfer(t, 9, 1, 9, 0, 16<<20)
	bg.Start()

	single := r.transfer(t, 1, 0, 8, 3, 4<<20)
	single.Start()
	r.n.K.Run(60)
	if !single.Done() {
		t.Fatal("single-path flow did not finish")
	}

	// Fresh rig for the sprayed flow under identical background.
	r2 := newRig(t, 0)
	bg2 := r2.transfer(t, 9, 1, 9, 0, 16<<20)
	bg2.Start()
	sprayed := r2.transfer(t, 1, 0, 8, 0, 4<<20)
	i := 0
	routes := [][]topology.LinkID{r2.route(0, 8, 0), r2.route(0, 8, 3)}
	sprayed.RoutePicker = func() []topology.LinkID {
		i++
		return routes[i%2]
	}
	sprayed.Start()
	r2.n.K.Run(60)
	if !sprayed.Done() {
		t.Fatal("sprayed flow did not finish")
	}

	if sprayed.RetxRate() <= single.RetxRate() {
		t.Errorf("sprayed retx rate %.4f should exceed single-path %.4f",
			sprayed.RetxRate(), single.RetxRate())
	}
}

func TestRetxUnderHeavyCongestion(t *testing.T) {
	r := newRig(t, 4) // tiny buffers
	var conns []*Conn
	for i := 0; i < 4; i++ {
		c := r.transfer(t, i+1, i, 8+i, 0, 2<<20)
		conns = append(conns, c)
		c.Start()
	}
	r.n.K.Run(120)
	totalRetx := 0
	for _, c := range conns {
		if !c.Done() {
			t.Fatalf("flow %d did not complete under congestion", c.ID())
		}
		totalRetx += c.Retx
	}
	if totalRetx == 0 {
		t.Error("four flows through one core with 4-packet buffers should drop and retransmit")
	}
}

func TestConnValidation(t *testing.T) {
	r := newRig(t, 0)
	if _, err := NewConn(nil, 1, nil, 1, Options{}, nil); err == nil {
		t.Error("nil net should fail")
	}
	if _, err := NewConn(r.n, 1, r.route(0, 8, 0), 0, Options{}, nil); err == nil {
		t.Error("zero size should fail")
	}
}

func TestTransferTimeNaNUntilDone(t *testing.T) {
	r := newRig(t, 0)
	c := r.transfer(t, 1, 0, 8, 0, 1<<20)
	if !math.IsNaN(c.TransferTime()) {
		t.Error("TransferTime should be NaN before completion")
	}
}

func TestOnDoneFiresOnce(t *testing.T) {
	r := newRig(t, 0)
	count := 0
	c, err := NewConn(r.n, 1, r.route(0, 8, 0), 1<<20, Options{}, func(*Conn) { count++ })
	if err != nil {
		t.Fatal(err)
	}
	r.d.Register(c)
	c.Start()
	r.n.K.Run(60)
	if count != 1 {
		t.Errorf("onDone fired %d times, want 1", count)
	}
}

func TestDispatcher(t *testing.T) {
	d := NewDispatcher()
	if _, ok := d.Conn(1); ok {
		t.Error("empty dispatcher should not find a conn")
	}
	// Unknown flow IDs are dropped silently.
	d.Deliver(&simnet.Packet{FlowID: 42})
	d.Deliver(&simnet.Packet{FlowID: -1})

	r := newRig(t, 0)
	c := r.transfer(t, 3, 0, 8, 0, 1<<10)
	for id, want := range map[int]bool{-1: false, 0: false, 2: false, 3: true, 4: false} {
		if got, ok := r.d.Conn(id); ok != want || (ok && got != c) {
			t.Errorf("Conn(%d) = %v, %v; want registered=%v", id, got, ok, want)
		}
	}
	if _, err := NewConn(r.n, -1, c.Route(), 8, Options{}, nil); err == nil {
		t.Error("NewConn accepted a negative flow ID")
	}
}

// TestPacketForwardingSteadyStateAllocs is the alloc gate for the packet
// engine's hot path: once a New Reno transfer is warm, forwarding a
// window of ACK-clocked segments — each data packet and its ACK crossing
// six links, the RTO re-armed on every ACK — must not allocate. Packets
// come from the net's free list, link queues are rings, the ACK reuses
// its reverse route, and forwarding schedules typed events, not closures.
func TestPacketForwardingSteadyStateAllocs(t *testing.T) {
	r := newRig(t, 0)
	// Capped slow start keeps the window below the queue headroom, so
	// the transfer runs lossless and purely ACK-clocked.
	c, err := NewConn(r.n, 1, r.route(0, 8, 0), 8*(64<<20), Options{InitialSsthresh: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.d.Register(c)
	c.Start()
	r.n.K.Run(0.2)
	const window = 16
	advance := func() {
		target := c.State().SndUna + window
		for c.State().SndUna < target && r.n.K.Step() {
		}
	}
	advance() // settle the ACK route cache and free lists
	if allocs := testing.AllocsPerRun(50, advance); allocs != 0 {
		t.Fatalf("forwarding a %d-segment window allocates %.1f times, want 0", window, allocs)
	}
	if c.Done() || c.Retx != 0 {
		t.Fatalf("transfer left steady state: done=%v retx=%d", c.Done(), c.Retx)
	}
}
