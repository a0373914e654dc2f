package dard

import (
	"slices"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/topology"
	"dard/internal/workload"
)

// idleFatTree returns a finished fault-free DARD flow run on a p-ary fat
// tree, its controller, and the path set of an inter-pod ToR pair.
func idleFatTree(tb testing.TB, p int) (*flowsim.Sim, *Controller, topology.PathSet) {
	tb.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: p})
	if err != nil {
		tb.Fatal(err)
	}
	last := len(ft.Hosts()) - 1 // the last pod: inter-pod from host 0
	ctl := New(Options{})
	s, err := flowsim.New(flowsim.Config{
		Net:        ft,
		Controller: ctl,
		Arrivals:   workload.List([]workload.Flow{{ID: 0, Src: 0, Dst: last, SizeBits: 1e6}}),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	return s, ctl, s.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[last]))
}

// linkChurn returns a function that fails or repairs an exit link of
// coll's first covering switch, so the host's change feed names it and
// the next round re-reads that port into the view and logs the change.
func linkChurn(s *flowsim.Sim, coll *Collector) func() {
	churned := s.Topo().Graph().Out(coll.ps.AppendSwitches(nil)[0])[0]
	down := false
	return func() {
		down = !down
		s.SetLinkDown(churned, down)
	}
}

// monitorTick returns one warm query tick of an inter-pod monitor on a
// p-ary fat tree, with the fold a scheduling round runs when it reads
// the path state vector: Collector.assembleView over the pair's
// covering switches, then foldPending. churn is linkChurn's, so the
// next tick drains one changed port instead of pinning the view as it
// is.
func monitorTick(tb testing.TB, p int) (tick, churn func()) {
	tb.Helper()
	s, ctl, ps := idleFatTree(tb, p)
	coll := ctl.newCollector(s, 1, ps)
	var (
		pv  []PathState
		buf []topology.LinkID
		err error
	)
	tick = func() {
		if err := coll.assembleView(); err != nil {
			tb.Fatal(err)
		}
		if pv, buf, err = coll.foldPending(pv[:0], buf, ps); err != nil {
			tb.Fatal(err)
		}
	}
	tick()
	if len(pv) != ps.Len() {
		tb.Fatalf("folded %d paths, want %d", len(pv), ps.Len())
	}
	return tick, linkChurn(s, coll)
}

// TestAssembleSteadyStateAllocs is the alloc gate for DARD's query
// round: once warm, a fault-free monitor tick — a drain of the host's
// change feed and a pin on the view — plus its fold must not allocate,
// whether nothing changed or a changed port is drained, re-read and its
// change logged. The drain reuses the view's buffer and the host's
// list; one allocation per tick multiplies into gigabytes per p=32 run.
func TestAssembleSteadyStateAllocs(t *testing.T) {
	tick, churn := monitorTick(t, 8)
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("warm monitor tick allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { churn(); tick() }); allocs != 0 {
		t.Fatalf("monitor tick after a port-state change allocates %.1f times, want 0", allocs)
	}
}

// TestUndoLogStaysBounded ticks a monitor's collector through long runs
// of port changes, folding only every 50th tick as a scheduling round
// would, and through a run with no change while another fold stays
// pending. The view's undo log and pin queue keep only what a pending
// fold can read, pruning when they fill, so their storage stays a few
// entries long. A fold pinned before a run must still read the view as
// it stood then; once it runs, or its monitor is released, the storage
// the run grew must stop growing.
func TestUndoLogStaysBounded(t *testing.T) {
	s, ctl, ps := idleFatTree(t, 8)
	a := ctl.newCollector(s, 1, ps)
	b := ctl.newCollector(s, 2, ps)
	churn := linkChurn(s, a)
	v := a.shared.view
	var (
		pv  []PathState
		buf []topology.LinkID
	)
	run := func(ticks int) {
		t.Helper()
		for i := 1; i <= ticks; i++ {
			churn()
			if err := a.assembleView(); err != nil {
				t.Fatal(err)
			}
			if i%50 == 0 {
				var err error
				if pv, buf, err = a.foldPending(pv[:0], buf, ps); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// steady runs 10000 ticks, which must not grow the log or the pin
	// queue beyond the larger of bound and what they hold already.
	steady := func(phase string, bound int) {
		t.Helper()
		undoCap, pinCap := max(bound, cap(v.undo)), max(bound, cap(v.pins))
		run(10000)
		if cap(v.undo) > undoCap || cap(v.pins) > pinCap {
			t.Fatalf("%s: undo log grew to %d records and the pin queue to %d entries, want at most %d and %d",
				phase, cap(v.undo), cap(v.pins), undoCap, pinCap)
		}
		if n := v.epoch - v.oldestPin(); n > 1 {
			t.Fatalf("%s: %d logged changes still readable, want at most the last tick's 1", phase, n)
		}
	}
	steady("one monitor ticking", 8)

	// With no port changing, every tick pins the same epoch: b's pending
	// fold must not make a's ticks and folds pile up pins.
	if err := b.assembleView(); err != nil {
		t.Fatal(err)
	}
	pinCap := max(8, cap(v.pins))
	for i := 0; i < 10000; i++ {
		if err := a.assembleView(); err != nil {
			t.Fatal(err)
		}
		var err error
		if pv, buf, err = a.foldPending(pv[:0], buf, ps); err != nil {
			t.Fatal(err)
		}
	}
	if cap(v.pins) > pinCap {
		t.Fatalf("quiet ticks grew the pin queue to %d entries, want at most %d", cap(v.pins), pinCap)
	}
	b.release()

	// b pins the view, then a churns on: b's fold must see the view as
	// it was, so the log holds every change since.
	if err := b.assembleView(); err != nil {
		t.Fatal(err)
	}
	before, _, err := FoldPVInto(nil, nil, ps, v.ports)
	if err != nil {
		t.Fatal(err)
	}
	run(1001) // odd: the churned link ends failed
	if len(v.undo) < 1001 {
		t.Fatalf("undo log holds %d records while a fold pinned before 1001 changes is pending", len(v.undo))
	}
	got, _, err := b.foldPending(nil, nil, ps)
	if err != nil {
		t.Fatal(err)
	}
	if !samePV(got, before) {
		t.Fatalf("fold pinned before the churn read %v, want %v", got, before)
	}
	steady("after the old fold ran", 0)

	// A released monitor's pending fold pins nothing.
	if err := b.assembleView(); err != nil {
		t.Fatal(err)
	}
	b.release() // as Departed does
	steady("after a pending monitor was released", 0)
}

// BenchmarkCollectorAssemble times one p=32 inter-pod monitor tick, the
// control-plane share of a flow-engine DARD run on the paper's fabric.
// The host is idle, so the round drains no port.
func BenchmarkCollectorAssemble(b *testing.B) {
	tick, _ := monitorTick(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// BenchmarkCollectorAssembleChurn is BenchmarkCollectorAssemble with one
// port of a covering switch changed before every tick, so each tick
// also drains and re-reads that port.
func BenchmarkCollectorAssembleChurn(b *testing.B) {
	tick, churn := monitorTick(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
		tick()
	}
}

// TestLinkStateSetRejectsHostileLink pins that a reply naming a link
// outside the topology — the ID comes off the wire — is an error, not
// an index panic.
func TestLinkStateSetRejectsHostileLink(t *testing.T) {
	ls := NewLinkState(4)
	for _, id := range []uint32{4, 5, 1 << 31, ^uint32(0)} {
		if err := ls.Set(ctlmsg.PortState{LinkID: id}); err == nil {
			t.Errorf("Set accepted link %d of a 4-link table", id)
		}
	}
}

// TestLinkStateReset checks that Reset forgets every entry, including
// across the generation stamp's wrap-around.
func TestLinkStateReset(t *testing.T) {
	ls := NewLinkState(4)
	want := ctlmsg.PortState{LinkID: 3, BandwidthMbps: 1000, ElephantFlows: 2}
	if err := ls.Set(want); err != nil {
		t.Fatal(err)
	}
	if got, ok := ls.Get(3); !ok || got != want {
		t.Fatalf("Get(3) = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := ls.Get(2); ok {
		t.Error("Get(2) found a link nobody set")
	}
	ls.Reset()
	if _, ok := ls.Get(3); ok {
		t.Error("entry survived Reset")
	}
	ls.gen = ^uint32(0)
	if err := ls.Set(want); err != nil {
		t.Fatal(err)
	}
	ls.Reset() // the stamp wraps
	if _, ok := ls.Get(3); ok {
		t.Error("entry survived the Reset that wrapped the generation stamp")
	}
}

// TestCoveringSwitches checks the monitor's covering switches
// (PathSet.AppendSwitches, as newCollector gathers them) against the
// definition — the set of upstream endpoints of every path link — on a
// tree and a non-tree family, with one gather buffer reused across pairs
// so stale entries would show.
func TestCoveringSwitches(t *testing.T) {
	ft := fatTree(t)
	df, err := topology.NewDragonfly(topology.DragonflyConfig{D: 4, A: 3, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []topology.Network{ft, df} {
		g := net.Graph()
		var buf []topology.NodeID
		src := net.ToROf(net.Hosts()[0])
		for _, h := range net.Hosts() {
			dst := net.ToROf(h)
			if dst == src {
				continue
			}
			ps := net.PathSet(src, dst)
			want := map[topology.NodeID]bool{}
			for i := 0; i < ps.Len(); i++ {
				for _, l := range ps.AppendLinks(i, nil) {
					want[g.Link(l).From] = true
				}
			}
			buf = ps.AppendSwitches(buf[:0])
			got := buf
			if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Fatalf("%s %d->%d: %v is not sorted and unique", net.Name(), src, dst, got)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %d->%d: got %d switches, want exactly %d", net.Name(), src, dst, len(got), len(want))
			}
			for _, sw := range got {
				if !want[sw] {
					t.Fatalf("%s %d->%d: switch %d covers no path link", net.Name(), src, dst, sw)
				}
			}
		}
	}
}
