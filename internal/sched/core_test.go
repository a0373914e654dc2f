package sched_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dard/internal/sched"
	"dard/internal/snap"
	"dard/internal/topology"
	"dard/internal/trace"
)

// switchTracer records emitted events and reports itself enabled only
// when on is set, so a test sees whether Core checks Enabled.
type switchTracer struct {
	on     bool
	events []trace.Event
}

func (s *switchTracer) Enabled() bool                                { return s.on }
func (s *switchTracer) Emit(e trace.Event)                           { s.events = append(s.events, e) }
func (s *switchTracer) Sample(trace.Metric, int64, float64, float64) {}

// newCore builds a Core on a p=4 fat-tree whose clock reads *now.
func newCore(t *testing.T, tr trace.Tracer, now *float64) (*topology.FatTree, *sched.Core) {
	t.Helper()
	ft := fatTree(t)
	c := sched.NewCore(ft, 7, tr, func() float64 { return *now })
	return ft, &c
}

// route is the host-to-host link list of path i from host index src to
// dst, the shape both engines hand Core.
func route(ft *topology.FatTree, src, dst, i int) []topology.LinkID {
	hosts := ft.Hosts()
	s, d := hosts[src], hosts[dst]
	r := []topology.LinkID{ft.HostUplink(s)}
	r = ft.PathSet(ft.ToROf(s), ft.ToROf(d)).AppendLinks(i, r)
	return append(r, ft.HostDownlink(d))
}

// counts returns every link's elephant count.
func counts(ft *topology.FatTree, c *sched.Core) []int {
	out := make([]int, ft.Graph().NumLinks())
	for l := range out {
		out[l] = c.ElephantsOnLink(topology.LinkID(l))
	}
	return out
}

// drained returns the links c's change feed names, sorted.
func drained(c *sched.Core) []topology.LinkID { return sortedLinks(c.AppendChangedPorts(nil)) }

// sortedLinks returns a sorted copy of links.
func sortedLinks(links []topology.LinkID) []topology.LinkID {
	links = slices.Clone(links)
	slices.Sort(links)
	return links
}

// wantCounts is the per-link count of elephants on the given routes.
func wantCounts(ft *topology.FatTree, routes ...[]topology.LinkID) []int {
	out := make([]int, ft.Graph().NumLinks())
	for _, r := range routes {
		for _, l := range r {
			out[l]++
		}
	}
	return out
}

func TestCoreElephantCountsFollowRoutes(t *testing.T) {
	var now float64
	ft, c := newCore(t, nil, &now)
	a0, a1 := route(ft, 0, 8, 0), route(ft, 0, 8, 1)
	b := route(ft, 1, 12, 2)

	c.ElephantStarted(a0)
	c.ElephantStarted(b)
	if got, want := counts(ft, c), wantCounts(ft, a0, b); !slices.Equal(got, want) {
		t.Fatalf("after two adds: counts %v, want %v", got, want)
	}
	// A path switch: off the old route, onto the new one.
	c.CountElephant(a0, -1)
	c.CountElephant(a1, +1)
	if got, want := counts(ft, c), wantCounts(ft, a1, b); !slices.Equal(got, want) {
		t.Fatalf("after a move: counts %v, want %v", got, want)
	}
	c.ElephantEnded(a1)
	if got, want := counts(ft, c), wantCounts(ft, b); !slices.Equal(got, want) {
		t.Fatalf("after a remove: counts %v, want %v", got, want)
	}
	c.ElephantEnded(b)
	if got, want := counts(ft, c), wantCounts(ft); !slices.Equal(got, want) {
		t.Fatalf("after draining: counts %v, want all zero", got)
	}
}

// TestCorePortFeedNamesChangedLinks pins the change feed's contract:
// nothing is recorded before the first drain, which names every link;
// after it, a drain names exactly the links whose elephant count or
// capacity changed since the previous one, each once, appended to the
// caller's buffer.
func TestCorePortFeedNamesChangedLinks(t *testing.T) {
	var now float64
	ft, c := newCore(t, nil, &now)
	r := route(ft, 0, 8, 0)
	c.ElephantStarted(r)
	all := make([]topology.LinkID, ft.Graph().NumLinks())
	for l := range all {
		all[l] = topology.LinkID(l)
	}
	if got := drained(c); !slices.Equal(got, all) {
		t.Fatalf("first drain named %d links, want all %d", len(got), len(all))
	}
	if got := drained(c); len(got) != 0 {
		t.Fatalf("drain with nothing changed named %v", got)
	}
	// check applies op and requires the next drain to name exactly want.
	check := func(what string, want []topology.LinkID, op func()) {
		t.Helper()
		op()
		if got, want := drained(c), sortedLinks(want); !slices.Equal(got, want) {
			t.Errorf("%s: drain named %v, want %v", what, got, want)
		}
	}
	l := r[1] // the ToR's uplink
	check("elephant added", r, func() { c.ElephantStarted(r) })
	check("elephant moved off", r, func() { c.CountElephant(r, -1) })
	check("elephant moved off and back on", r, func() { c.CountElephant(r, -1); c.CountElephant(r, +1) })
	check("elephant removed", r, func() { c.ElephantEnded(r) })
	check("link failed", []topology.LinkID{l}, func() { c.SetLinkDown(l, true) })
	check("link failed again", nil, func() { c.SetLinkDown(l, true) })
	check("link repaired, failed and elephant removed", r, func() {
		c.SetLinkDown(l, false)
		c.SetLinkDown(l, true)
		c.ElephantEnded(r)
	})
	check("nothing", nil, func() {})
	c.SetLinkDown(l, false)
	if got := c.AppendChangedPorts([]topology.LinkID{99}); !slices.Equal(got, []topology.LinkID{99, l}) {
		t.Errorf("drain into a non-empty buffer = %v, want [99 %d]", got, l)
	}
}

// TestCoreLinkDownOwnsCapacityAndTrace pins SetLinkDown's contract: a
// change flips the link's effective capacity, marks it in the change
// feed and traces one LinkFail or LinkRecover with the link at the
// engine's clock; a repeat returns false and does none of that; and a
// snapshot's failed links restore silently.
func TestCoreLinkDownOwnsCapacityAndTrace(t *testing.T) {
	now := 1.25
	tr := &switchTracer{on: true}
	ft, c := newCore(t, tr, &now)
	l := route(ft, 0, 8, 0)[1]
	nominal := ft.Graph().Link(l).Capacity
	if c.LinkDown(l) || c.LinkCapacity(l) != nominal {
		t.Fatalf("fresh link: down %v, capacity %g; want up at %g", c.LinkDown(l), c.LinkCapacity(l), nominal)
	}
	drained(c) // switch the feed on
	step := func(down, changed bool, at float64, kind trace.Kind) {
		t.Helper()
		now = at
		tr.events = nil
		if got := c.SetLinkDown(l, down); got != changed {
			t.Fatalf("SetLinkDown(%v) at %g = %v, want %v", down, at, got, changed)
		}
		wantCap, wantFeed, wantEvents := nominal, []topology.LinkID(nil), []trace.Event(nil)
		if down {
			wantCap = 0
		}
		if changed {
			wantFeed = []topology.LinkID{l}
			wantEvents = []trace.Event{{T: at, Kind: kind, Flow: -1, Link: int32(l)}}
		}
		if c.LinkDown(l) != down || c.LinkCapacity(l) != wantCap {
			t.Errorf("after SetLinkDown(%v): down %v, capacity %g; want capacity %g", down, c.LinkDown(l), c.LinkCapacity(l), wantCap)
		}
		if got := drained(c); !slices.Equal(got, wantFeed) {
			t.Errorf("after SetLinkDown(%v): drain named %v, want %v", down, got, wantFeed)
		}
		if !slices.Equal(tr.events, wantEvents) {
			t.Errorf("after SetLinkDown(%v): events %+v, want %+v", down, tr.events, wantEvents)
		}
	}
	step(true, true, 2, trace.KindLinkFail)
	step(true, false, 3, 0)
	step(false, true, 4, trace.KindLinkRecover)
	step(false, false, 5, 0)

	// The failed links survive a snapshot round trip into a fresh Core,
	// which emits nothing for them and leaves the others nominal.
	other := route(ft, 1, 9, 1)[2]
	c.SetLinkDown(l, true)
	c.SetLinkDown(other, true)
	enc := snap.NewEncoder(1)
	c.SnapshotLinks(enc)
	dec, err := snap.NewDecoder(enc.Finish())
	if err != nil {
		t.Fatal(err)
	}
	rtr := &switchTracer{on: true}
	_, restored := newCore(t, rtr, &now)
	if err := restored.RestoreLinks(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	for id := range ft.Graph().NumLinks() {
		lid := topology.LinkID(id)
		if restored.LinkDown(lid) != (lid == l || lid == other) || restored.LinkCapacity(lid) != c.LinkCapacity(lid) {
			t.Errorf("restored link %d: down %v, capacity %g; want capacity %g", lid, restored.LinkDown(lid), restored.LinkCapacity(lid), c.LinkCapacity(lid))
		}
	}
	if len(rtr.events) != 0 {
		t.Errorf("restore emitted %+v, want nothing", rtr.events)
	}
	// A restored failure is already in effect: failing it again is a
	// no-op, and repairing it traces the recovery.
	if restored.SetLinkDown(l, true) || !restored.SetLinkDown(l, false) || len(rtr.events) != 1 || rtr.events[0].Kind != trace.KindLinkRecover {
		t.Errorf("restored link: fail/repair events %+v, want one LinkRecover", rtr.events)
	}
}

func TestCorePeakElephantsNeverDecrease(t *testing.T) {
	var now float64
	ft, c := newCore(t, nil, &now)
	routes := [][]topology.LinkID{route(ft, 0, 8, 0), route(ft, 1, 9, 1), route(ft, 4, 12, 2)}
	// +1 starts the next elephant, -1 ends the oldest one still active.
	steps := []int{+1, +1, -1, +1, +1, -1, -1, +1, -1, -1}
	var active [][]topology.LinkID
	next, cur, peak := 0, 0, 0
	for i, step := range steps {
		if step > 0 {
			r := routes[next%len(routes)]
			next++
			active = append(active, r)
			c.ElephantStarted(r)
			cur++
		} else {
			c.ElephantEnded(active[0])
			active = active[1:]
			cur--
		}
		prev := peak
		peak = max(peak, cur)
		got := c.PeakElephants()
		if got != peak || got < prev {
			t.Fatalf("step %d: peak %d, want %d (previously %d)", i, got, peak, prev)
		}
	}

	// The counters survive a snapshot round trip into a fresh Core.
	c.RecordControl(123)
	enc := snap.NewEncoder(1)
	c.SnapshotCounters(enc)
	dec, err := snap.NewDecoder(enc.Finish())
	if err != nil {
		t.Fatal(err)
	}
	_, restored := newCore(t, nil, &now)
	restored.RestoreCounters(dec)
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
	if restored.PeakElephants() != peak || restored.ControlBytes() != 123 {
		t.Errorf("restored peak %d, control bytes %g; want %d, 123", restored.PeakElephants(), restored.ControlBytes(), peak)
	}
	// The restored current count carries on: a new elephant beyond the
	// old peak raises it.
	for i := 0; i <= peak; i++ {
		restored.ElephantStarted(routes[0])
	}
	if got := restored.PeakElephants(); got != peak+1 {
		t.Errorf("restored peak after %d more elephants = %d, want %d", peak+1, got, peak+1)
	}
}

func TestCoreRecordControlTracesOnlyWhenEnabled(t *testing.T) {
	for _, on := range []bool{false, true} {
		now := 2.5
		tr := &switchTracer{on: on}
		_, c := newCore(t, tr, &now)
		c.RecordControl(40)
		now = 3
		c.RecordControl(60)
		if got := c.ControlBytes(); got != 100 {
			t.Errorf("tracing %v: control bytes %g, want 100", on, got)
		}
		if !on {
			if len(tr.events) != 0 {
				t.Errorf("tracing off: %d events emitted, want none", len(tr.events))
			}
			continue
		}
		want := []trace.Event{
			{T: 2.5, Kind: trace.KindControlMsg, Flow: -1, Link: -1, V: 40},
			{T: 3, Kind: trace.KindControlMsg, Flow: -1, Link: -1, V: 60},
		}
		if !slices.Equal(tr.events, want) {
			t.Errorf("tracing on: events %+v, want %+v", tr.events, want)
		}
	}
}

func TestCoreFlowEvents(t *testing.T) {
	now := 1.5
	tr := &switchTracer{on: true}
	_, c := newCore(t, tr, &now)
	c.EmitFlowStart(sched.Flow{ID: 3, Src: 20, Dst: 30}, 8e6)
	now = 2
	c.EmitPathSwitch(3, 0, 2)
	now = 4
	c.EmitFlowEnd(3, 2, 8e6)
	want := []trace.Event{
		{T: 1.5, Kind: trace.KindFlowStart, Flow: 3, Link: -1, A: 20, B: 30, V: 8e6},
		{T: 2, Kind: trace.KindPathSwitch, Flow: 3, Link: -1, A: 0, B: 2},
		{T: 4, Kind: trace.KindFlowEnd, Flow: 3, Link: -1, A: 2, V: 8e6},
	}
	if !slices.Equal(tr.events, want) {
		t.Errorf("events %+v, want %+v", tr.events, want)
	}
	tr.on, tr.events = false, nil
	c.EmitFlowStart(sched.Flow{ID: 4}, 1)
	c.EmitPathSwitch(4, 0, 1)
	c.EmitFlowEnd(4, 1, 1)
	if len(tr.events) != 0 {
		t.Errorf("tracing off: %d flow events emitted, want none", len(tr.events))
	}
}

func TestCoreHostSurface(t *testing.T) {
	var now float64
	ft, c := newCore(t, nil, &now)
	if c.Topo() != topology.Network(ft) || c.Seed() != 7 {
		t.Errorf("Topo/Seed do not return the configured values")
	}
	if c.Tracer() == nil || c.Tracer().Enabled() {
		t.Errorf("a nil tracer should read as a disabled, non-nil tracer")
	}
	if got, want := c.Rand().Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
		t.Errorf("Rand draws %d, want the seeded source's %d", got, want)
	}
	hosts := ft.Hosts()
	a, b := ft.ToROf(hosts[0]), ft.ToROf(hosts[8])
	if got, want := c.PathSet(a, b).Len(), ft.PathSet(a, b).Len(); got != want {
		t.Errorf("PathSet has %d paths, want %d", got, want)
	}
	f := sched.Flow{ID: 0, Src: hosts[0], Dst: hosts[8], SrcToR: a, DstToR: b}
	for i := 0; i < c.PathSet(a, b).Len(); i++ {
		got := c.AppendRoute([]topology.LinkID{99}, f, c.PathSet(a, b), i)
		if want := append([]topology.LinkID{99}, route(ft, 0, 8, i)...); !slices.Equal(got, want) {
			t.Errorf("AppendRoute path %d = %v, want %v", i, got, want)
		}
	}
}

func TestCheckLinkEvents(t *testing.T) {
	ft := fatTree(t)
	links := topology.LinkID(ft.Graph().NumLinks())
	good := []topology.LinkEvent{{At: 0, Link: 0, Down: true}, {At: 5, Link: links - 1}}
	if err := sched.CheckLinkEvents(ft, good); err != nil {
		t.Fatalf("valid events rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		ev   topology.LinkEvent
	}{
		{"link out of range", topology.LinkEvent{At: 1, Link: links, Down: true}},
		{"negative link", topology.LinkEvent{At: 1, Link: -1, Down: true}},
		{"negative time", topology.LinkEvent{At: -1, Link: 0, Down: true}},
		{"NaN time", topology.LinkEvent{At: math.NaN(), Link: 0, Down: true}},
		{"infinite time", topology.LinkEvent{At: math.Inf(1), Link: 0, Down: true}},
	} {
		if err := sched.CheckLinkEvents(ft, append(good, tc.ev)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
