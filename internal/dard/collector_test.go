package dard

import (
	"errors"
	"slices"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/topology"
	"dard/internal/workload"
)

// monitorTick returns one warm query tick of an inter-pod monitor on a
// p-ary fat tree: Collector.Assemble over the pair's covering switches,
// folding the round into the path state vector exactly as
// monitor.assemble does every query interval. The host is a finished
// fault-free flow run, so every exchange marshals, serves and parses
// real bytes. churn fails or repairs an exit link of one covering
// switch, moving its port stamp, so the next tick rebuilds that
// switch's cached reply instead of replaying it.
func monitorTick(tb testing.TB, p int) (tick, churn func()) {
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
		Flows:      []workload.Flow{{ID: 0, Src: 0, Dst: last, SizeBits: 1e6}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	ps := s.PathSet(ft.ToROf(ft.Hosts()[0]), ft.ToROf(ft.Hosts()[last]))
	coll := ctl.newCollector(s, 1, ps)
	var (
		pv      []PathState
		buf     []topology.LinkID
		foldErr error
	)
	done := func(linkState *LinkState, _ int, complete bool) {
		if !complete {
			foldErr = errors.New("fault-free round reported incomplete")
			return
		}
		pv, buf, foldErr = FoldPVInto(pv[:0], buf, ps, linkState)
	}
	tick = func() {
		if err := coll.Assemble(done); err != nil {
			tb.Fatal(err)
		}
		if foldErr != nil {
			tb.Fatal(foldErr)
		}
	}
	tick()
	if len(pv) != ps.Len() {
		tb.Fatalf("folded %d paths, want %d", len(pv), ps.Len())
	}
	churned := ft.Graph().Out(coll.switches[0])[0]
	down := false
	churn = func() {
		down = !down
		s.SetLinkDown(churned, down)
	}
	return tick, churn
}

// TestAssembleSteadyStateAllocs is the alloc gate for DARD's query
// round: once warm, a fault-free monitor tick — a marshaled query and
// parsed reply per covering switch, then the fold — must not allocate,
// whether every agent replays its cached reply or one rebuilds it after
// a port-state change. At p=32 a tick is ~290 switch exchanges, so one
// allocation per exchange multiplies into gigabytes per run.
func TestAssembleSteadyStateAllocs(t *testing.T) {
	tick, churn := monitorTick(t, 8)
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Fatalf("warm monitor tick allocates %.1f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { churn(); tick() }); allocs != 0 {
		t.Fatalf("monitor tick after a port-state change allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkCollectorAssemble times one p=32 inter-pod monitor tick, the
// control-plane share of a flow-engine DARD run on the paper's fabric.
// The host is idle, so every agent replays its cached reply.
func BenchmarkCollectorAssemble(b *testing.B) {
	tick, _ := monitorTick(b, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// BenchmarkCollectorAssembleChurn is BenchmarkCollectorAssemble with one
// covering switch's port state changed before every tick, so each tick
// also pays one agent's cache rebuild.
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

// TestCoveringSwitches checks the mark-and-sort gather against the
// definition — the set of upstream endpoints of every path link — on a
// tree and a non-tree family, with one gather buffer reused across
// pairs so stale entries would show, including across the wrap of its
// mark stamp.
func TestCoveringSwitches(t *testing.T) {
	ft := fatTree(t)
	df, err := topology.NewDragonfly(topology.DragonflyConfig{D: 4, A: 3, P: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []topology.Network{ft, df} {
		g := net.Graph()
		var sg switchGather
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
			got := sg.coveringSwitches(g, ps)
			if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Fatalf("%s %d->%d: %v is not sorted and unique", net.Name(), src, dst, got)
			}
			if len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("%s %d->%d: got %d switches (cap %d), want exactly %d", net.Name(), src, dst, len(got), cap(got), len(want))
			}
			for _, sw := range got {
				if !want[sw] {
					t.Fatalf("%s %d->%d: switch %d covers no path link", net.Name(), src, dst, sw)
				}
			}
		}
		// Wrap the mark stamp after a fresh gather's first call: the
		// marks that call left hold the stamp the wrap restarts at, and
		// must not read as current.
		var wrapped switchGather
		ps := net.PathSet(src, net.ToROf(net.Hosts()[len(net.Hosts())-1]))
		want := wrapped.coveringSwitches(g, ps)
		wrapped.gen = ^uint32(0)
		if got := wrapped.coveringSwitches(g, ps); !slices.Equal(got, want) {
			t.Fatalf("%s: after the stamp wrapped got %v, want %v", net.Name(), got, want)
		}
	}
}
