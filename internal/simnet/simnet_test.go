package simnet

import (
	"math"
	"testing"

	"dard/internal/topology"
	"dard/internal/trace"
)

func TestKernelOrdering(t *testing.T) {
	var k Kernel
	var order []int
	k.After(2, func() { order = append(order, 2) })
	k.After(1, func() { order = append(order, 1) })
	k.After(1, func() { order = append(order, 11) }) // FIFO at same time
	tm := k.After(1.5, func() { order = append(order, 99) })
	tm.Cancel()
	k.Run(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Errorf("order = %v, want [1 11 2]", order)
	}
	if k.Now() != 2 {
		t.Errorf("Now = %g, want 2", k.Now())
	}
}

func TestKernelRunHorizon(t *testing.T) {
	var k Kernel
	fired := false
	k.After(5, func() { fired = true })
	k.Run(3)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
	k.Run(10)
	if !fired {
		t.Error("event not fired after extending horizon")
	}
}

func TestKernelStep(t *testing.T) {
	var k Kernel
	n := 0
	k.After(1, func() { n++ })
	k.After(2, func() { n++ })
	if !k.Step() || n != 1 {
		t.Fatal("first step")
	}
	if !k.Step() || n != 2 {
		t.Fatal("second step")
	}
	if k.Step() {
		t.Fatal("step on empty queue should report false")
	}
}

// TestKernelCancelRekey cancels most of a large queue and checks that
// canceled events leave it at once — Pending counts live events only —
// and never fire, that re-keyed timers move in place with a fresh
// sequence number, and that every survivor fires in order.
func TestKernelCancelRekey(t *testing.T) {
	var k Kernel
	const n = 1000
	var fired []int
	timers := make([]Timer, n)
	schedule := func() {
		for i := 0; i < n; i++ {
			i := i
			timers[i] = k.After(float64(1+i), func() { fired = append(fired, i) })
		}
	}
	schedule()
	// Cancel all but every 10th event.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			timers[i].Cancel()
		}
	}
	live := n / 10
	if k.Pending() != live {
		t.Errorf("Pending = %d after mass cancel, want %d live", k.Pending(), live)
	}
	// Double Cancel is a no-op; then the survivors go too.
	for i := 0; i < n; i++ {
		timers[i].Cancel()
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after canceling everything, want 0", k.Pending())
	}
	k.Run(math.Inf(1))
	if len(fired) != 0 {
		t.Errorf("%d canceled events fired", len(fired))
	}

	// Survivors fire in schedule order after heavy cancellation churn;
	// every 20th is re-keyed to t+0.5, where it fires ahead of the rest
	// in re-key order, behind an event scheduled earlier for the same
	// time and ahead of one scheduled later.
	base := k.Now()
	fired = nil
	k.After(0.5, func() { fired = append(fired, -1) })
	schedule()
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			timers[i].Cancel()
			if timers[i].Reset(0.5) {
				t.Fatalf("Reset revived canceled timer %d", i)
			}
		}
	}
	if k.Pending() != live+1 {
		t.Fatalf("Pending = %d after cancels, want %d", k.Pending(), live+1)
	}
	var want []int
	want = append(want, -1)
	for i := n - 20; i >= 0; i -= 20 {
		if !timers[i].Reset(0.5) {
			t.Fatalf("Reset refused live timer %d", i)
		}
		want = append(want, i)
	}
	k.After(0.5, func() { fired = append(fired, -2) })
	want = append(want, -2)
	if k.Pending() != live+2 {
		t.Fatalf("Pending = %d after re-keys, want %d", k.Pending(), live+2)
	}
	for i := 10; i < n; i += 20 {
		want = append(want, i)
	}
	k.Run(math.Inf(1))
	if len(fired) != len(want) {
		t.Fatalf("%d events fired, want %d", len(fired), len(want))
	}
	for j := range want {
		if fired[j] != want[j] {
			t.Fatalf("fired[%d] = %d, want %d (fired %v)", j, fired[j], want[j], fired)
		}
	}
	if k.Now() != base+float64(n-9) {
		t.Errorf("Now = %g, want %g", k.Now(), base+float64(n-9))
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after drain, want 0", k.Pending())
	}
	if timers[0].Reset(1) {
		t.Error("Reset revived a fired timer")
	}

	// Negative delays clamp to now, for After and Reset alike.
	now := k.Now()
	ran := false
	tm := k.After(5, func() { ran = true })
	if !tm.Reset(-1) {
		t.Fatal("Reset refused a live timer")
	}
	k.After(-1, func() {})
	k.Run(now)
	if !ran || k.Now() != now || k.Pending() != 0 {
		t.Errorf("negative delays: ran=%v Now=%g (want %g) Pending=%d", ran, k.Now(), now, k.Pending())
	}
}

func buildNet(t *testing.T, deliver func(*Packet)) (*Net, *topology.FatTree) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNet(ft, 4, 1500*8, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return n, ft
}

func hostRoute(ft *topology.FatTree, src, dst int, pathIdx int) []topology.LinkID {
	hs := ft.Hosts()
	s, d := hs[src], hs[dst]
	route := []topology.LinkID{ft.HostUplink(s)}
	route = ft.PathSet(ft.ToROf(s), ft.ToROf(d)).AppendLinks(pathIdx, route)
	route = append(route, ft.HostDownlink(d))
	return route
}

func TestPacketDeliveryLatency(t *testing.T) {
	var delivered *Packet
	n, ft := buildNet(t, func(p *Packet) { delivered = p })
	route := hostRoute(ft, 0, 8, 0) // 6 hops
	p := &Packet{FlowID: 1, Seq: 0, SizeBits: 1500 * 8, Route: route}
	n.Send(p)
	n.K.Run(math.Inf(1))
	if delivered == nil {
		t.Fatal("packet not delivered")
	}
	// Expected: 6 x (serialization 12000/1e9 + prop 0.1ms).
	want := 6 * (1500*8/1e9 + 0.1e-3)
	if math.Abs(n.K.Now()-want) > 1e-12 {
		t.Errorf("delivery at %g, want %g", n.K.Now(), want)
	}
}

func TestQueueingDelaysBackToBackPackets(t *testing.T) {
	var times []float64
	var n *Net
	var ft *topology.FatTree
	n, ft = buildNet(t, func(p *Packet) { times = append(times, n.K.Now()) })
	route := hostRoute(ft, 0, 1, 0) // same ToR: 2 hops
	for i := 0; i < 3; i++ {
		n.Send(&Packet{FlowID: 1, Seq: i, SizeBits: 1500 * 8, Route: route})
	}
	n.K.Run(math.Inf(1))
	if len(times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(times))
	}
	tx := 1500 * 8 / 1e9
	// Pipeline: packets spaced one serialization apart at the bottleneck.
	for i := 1; i < 3; i++ {
		gap := times[i] - times[i-1]
		if math.Abs(gap-tx) > 1e-12 {
			t.Errorf("gap %d = %g, want %g", i, gap, tx)
		}
	}
}

func TestDropTail(t *testing.T) {
	delivered := 0
	n, ft := buildNet(t, func(p *Packet) { delivered++ })
	route := hostRoute(ft, 0, 1, 0)
	// Buffer is 4 packets; 1 in flight + 4 queued = 5 sent, rest dropped.
	for i := 0; i < 20; i++ {
		n.Send(&Packet{FlowID: 1, Seq: i, SizeBits: 1500 * 8, Route: route})
	}
	n.K.Run(math.Inf(1))
	if delivered >= 20 {
		t.Fatalf("delivered %d, expected drops with a 4-packet buffer", delivered)
	}
	if n.Drops(route[0]) == 0 {
		t.Error("no drops recorded on the bottleneck link")
	}
	if got := int(n.Drops(route[0])) + delivered; got != 20 {
		t.Errorf("drops+delivered = %d, want 20", got)
	}
}

func TestBitsSentAccounting(t *testing.T) {
	n, ft := buildNet(t, func(p *Packet) {})
	route := hostRoute(ft, 0, 8, 0)
	n.Send(&Packet{FlowID: 1, SizeBits: 1500 * 8, Route: route})
	n.K.Run(math.Inf(1))
	for _, l := range route {
		if got := n.BitsSent(l); got != 1500*8 {
			t.Errorf("link %d sent %g bits, want %g", l, got, 1500.0*8)
		}
	}
}

func TestNewNetValidation(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNet(nil, 0, 0, func(*Packet) {}); err == nil {
		t.Error("nil topology should fail")
	}
	if _, err := NewNet(ft, 0, 0, nil); err == nil {
		t.Error("nil deliver should fail")
	}
}

func TestEmptyRouteDelivers(t *testing.T) {
	got := 0
	n, _ := buildNet(t, func(p *Packet) { got++ })
	n.Send(&Packet{FlowID: 1})
	n.K.Run(math.Inf(1))
	if got != 1 {
		t.Errorf("empty-route packet delivered %d times, want 1", got)
	}
}

// TestLinkDownFlushesAndDrops pins the packet-boundary failure
// semantics: failing a link flushes its queue deterministically and
// counts every queued packet plus every later arrival as a FailDrop,
// while the packet already serializing escapes; repairing restores
// delivery with an empty queue.
func TestLinkDownFlushesAndDrops(t *testing.T) {
	delivered := 0
	n, ft := buildNet(t, func(p *Packet) { delivered++ })
	route := hostRoute(ft, 0, 1, 0)
	l := route[0]
	// 1 serializing + 4 queued fill the buffer exactly.
	for i := 0; i < 5; i++ {
		n.Send(&Packet{FlowID: 1, Seq: i, SizeBits: 1500 * 8, Route: route})
	}
	n.SetLinkDown(l, true)
	if got := n.FailDrops(l); got != 4 {
		t.Errorf("flush counted %d fail drops, want the 4 queued packets", got)
	}
	if n.QueueBits(l) != 0 {
		t.Errorf("queue holds %g bits after the flush", n.QueueBits(l))
	}
	// Arrivals while down are lost too.
	n.Send(&Packet{FlowID: 1, Seq: 5, SizeBits: 1500 * 8, Route: route})
	if got := n.FailDrops(l); got != 5 {
		t.Errorf("fail drops = %d after an arrival while down, want 5", got)
	}
	// Redundant transitions are no-ops: no double flush, no event spam.
	n.SetLinkDown(l, true)
	if got := n.FailDrops(l); got != 5 {
		t.Errorf("repeated SetLinkDown recounted drops: %d", got)
	}
	n.K.Run(math.Inf(1))
	if delivered != 1 {
		t.Errorf("%d packets escaped the failure, want only the serializing one", delivered)
	}
	n.SetLinkDown(l, false)
	n.Send(&Packet{FlowID: 1, Seq: 6, SizeBits: 1500 * 8, Route: route})
	n.K.Run(math.Inf(1))
	if delivered != 2 {
		t.Errorf("repaired link delivered %d packets total, want 2", delivered)
	}
	if got := n.FailDrops(l); got != 5 {
		t.Errorf("fail drops moved after repair: %d, want 5", got)
	}
}

// TestLinkQueueFIFOAndPacketReuse pins the link ring's FIFO order across
// growth and wrap-around, and packet ownership: once delivered, every
// packet handed to Send is recycled, zeroed, by NewPacket.
func TestLinkQueueFIFOAndPacketReuse(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	n, err := NewNet(ft, 64, 1500*8, func(p *Packet) { got = append(got, p.Seq) })
	if err != nil {
		t.Fatal(err)
	}
	route := hostRoute(ft, 0, 1, 0)
	sent := map[*Packet]bool{}
	send := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := n.NewPacket()
			p.FlowID, p.Seq, p.SizeBits, p.Route = 1, i, 1500*8, route
			sent[p] = true
			n.Send(p)
		}
	}
	// Seven packets leave six in the ring's first 8 slots; after four
	// transmissions its head has moved 5 slots, so the next five wrap
	// around the buffer, and the burst after that grows it while
	// wrapped.
	send(0, 7)
	n.K.Run(4.5 * 1500 * 8 / 1e9)
	send(7, 12)
	send(12, 30)
	n.K.Run(math.Inf(1))
	if len(got) != 30 {
		t.Fatalf("delivered %d packets, want 30", len(got))
	}
	for i, seq := range got {
		if seq != i {
			t.Fatalf("delivery %d carried seq %d: FIFO order broken", i, seq)
		}
	}
	for range sent {
		p := n.NewPacket()
		if !sent[p] {
			t.Fatal("NewPacket allocated while delivered packets were free")
		}
		if p.FlowID != 0 || p.Seq != 0 || p.SizeBits != 0 || p.Route != nil || p.Hop != 0 {
			t.Fatalf("recycled packet not zeroed: %+v", *p)
		}
	}
}

// TestDropsTracedAndRecycled checks that queue drops and failure drops
// reach the tracer with their own kinds, that the failure itself does
// not (sched.Core traces it), and that dropped packets are recycled too.
func TestDropsTracedAndRecycled(t *testing.T) {
	n, ft := buildNet(t, func(p *Packet) {})
	rec := trace.NewRecorder(trace.RecorderOptions{})
	n.SetTracer(rec)
	route := hostRoute(ft, 0, 1, 0)
	l := route[0]
	sent := map[*Packet]bool{}
	for i := 0; i < 12; i++ {
		p := &Packet{FlowID: 1, Seq: i, SizeBits: 1500 * 8, Route: route}
		sent[p] = true
		n.Send(p)
	}
	n.SetLinkDown(l, true)
	n.K.Run(math.Inf(1))
	kinds := map[trace.Kind]int64{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	if kinds[trace.KindDrop] != n.Drops(l) || n.Drops(l) != 7 {
		t.Errorf("traced %d drops, counted %d, want 7", kinds[trace.KindDrop], n.Drops(l))
	}
	if kinds[trace.KindFailDrop] != n.FailDrops(l) || n.FailDrops(l) != 4 {
		t.Errorf("traced %d fail drops, counted %d, want 4", kinds[trace.KindFailDrop], n.FailDrops(l))
	}
	if kinds[trace.KindLinkFail] != 0 {
		t.Errorf("traced %d link failures; link state is sched.Core's to trace", kinds[trace.KindLinkFail])
	}
	for range sent {
		if p := n.NewPacket(); !sent[p] {
			t.Fatal("a sent packet was not recycled")
		}
	}
}

// TestKernelMergesCallbacksAndPackets pins the order across the two
// queues: a callback and a packet event due at the same time fire in
// scheduling (seq) order, whichever queue each sits in.
func TestKernelMergesCallbacksAndPackets(t *testing.T) {
	var log []string
	n, ft := buildNet(t, func(p *Packet) { log = append(log, "deliver") })
	k := n.K

	// Same-host sends are due now, like After(0).
	k.After(0, func() { log = append(log, "a") })
	n.Send(&Packet{FlowID: 1})
	k.After(0, func() { log = append(log, "b") })
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3 (two callbacks, one packet event)", k.Pending())
	}
	k.Run(0)
	if len(log) != 3 || log[0] != "a" || log[1] != "deliver" || log[2] != "b" {
		t.Fatalf("fired %v, want [a deliver b]", log)
	}

	// A packet's first-hop arrive is scheduled at its transmit-done, so
	// a callback for the same instant scheduled before that fires first,
	// and one scheduled after it fires second. The arrive starts the
	// second hop's transmission, which the callbacks see in BitsSent.
	route := hostRoute(ft, 0, 1, 0)
	base := k.Now()
	tx := 1500 * 8 / 1e9
	delay := ft.Graph().Link(route[0]).Delay
	sent := func() float64 { return n.BitsSent(route[1]) }
	var seen []float64
	k.After(tx+delay, func() { seen = append(seen, sent()) })
	n.Send(&Packet{FlowID: 2, SizeBits: 1500 * 8, Route: route})
	k.After(tx, func() {
		k.After(delay, func() { seen = append(seen, sent()) })
	})
	k.Run(base + tx + delay)
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1500*8 {
		t.Fatalf("second-hop bits seen by the tied callbacks = %v, want [0 %d]", seen, 1500*8)
	}
}

// TestKernelZeroValueRunsCallbacks checks that a Kernel with no Net runs
// After callbacks through Step and Run and counts them in Pending.
func TestKernelZeroValueRunsCallbacks(t *testing.T) {
	var k Kernel
	n := 0
	k.After(1, func() { n++ })
	k.After(2, func() { n++ })
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", k.Pending())
	}
	if !k.Step() || n != 1 || k.Now() != 1 {
		t.Fatalf("Step: n = %d, Now = %g", n, k.Now())
	}
	k.Run(math.Inf(1))
	if n != 2 || k.Pending() != 0 || k.Step() {
		t.Fatalf("Run: n = %d, Pending = %d", n, k.Pending())
	}
}

// TestTimerNeverTouchesLanes cancels and re-keys timers, live and stale,
// while packet events are pending: the packet events stay queued and
// fire at their times in their order.
func TestTimerNeverTouchesLanes(t *testing.T) {
	var got []int
	n, _ := buildNet(t, func(p *Packet) { got = append(got, p.Seq) })
	k := n.K
	var timers []Timer
	for i := 0; i < 4; i++ {
		timers = append(timers, k.After(float64(i), func() {}))
		n.Send(&Packet{FlowID: 1, Seq: i})
	}
	timers[0].Cancel()
	stale := timers[0]
	for _, tm := range timers {
		tm.Reset(0)
		tm.Cancel()
	}
	stale.Cancel()
	if stale.Reset(1) || (Timer{}).Reset(1) {
		t.Fatal("Reset revived a canceled or zero timer")
	}
	(Timer{}).Cancel()
	if k.calls.Len() != 0 || k.pkts.Len() != 4 || k.Pending() != 4 {
		t.Fatalf("after cancels: %d callbacks, %d packet events, Pending %d; want 0, 4, 4",
			k.calls.Len(), k.pkts.Len(), k.Pending())
	}
	k.Run(math.Inf(1))
	if len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 3 || k.Now() != 0 {
		t.Fatalf("delivered %v at %g, want [0 1 2 3] at 0", got, k.Now())
	}
}
