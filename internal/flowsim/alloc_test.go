package flowsim

import (
	"math/rand"
	"testing"

	"dard/internal/topology"
	"dard/internal/workload"
)

// TestBuildRouteAllocs is the tier-1 alloc gate for the engine hot path:
// re-resolving a warm flow's route from the implicit path set — host
// uplink, ToR-to-ToR links, host downlink — must not allocate. Every
// arrival and every path switch funnels through buildRoute, so a single
// allocation here multiplies by the flow count at scale.
func TestBuildRouteAllocs(t *testing.T) {
	ft := testFatTree(t)
	// Host 0 is in pod 1, host 8 in pod 3: an inter-pod pair with the
	// full p^2/4-path set.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 8, SizeBits: 1e6, Arrival: 0}}
	s, err := New(Config{Net: ft, Controller: &staticController{}, Arrivals: workload.List(flows)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	f := s.Flow(0)
	if f == nil || f.SrcToR == f.DstToR {
		t.Fatal("expected an inter-pod flow")
	}
	ps := s.PathSet(f.SrcToR, f.DstToR)
	idx := 0
	allocs := testing.AllocsPerRun(100, func() {
		ps = s.PathSet(f.SrcToR, f.DstToR)
		s.buildRoute(f, ps, idx)
		idx = (idx + 1) % ps.Len()
	})
	if allocs != 0 {
		t.Fatalf("buildRoute allocates %.1f times per call on a warm flow, want 0", allocs)
	}
}

// TestRecomputeSteadyStateAllocs is the alloc gate for the max-min
// recompute: once a run is warm, refilling what a detach, an attach and
// a link failure and repair dirtied must not allocate. Every arrival,
// completion, path switch and link event ends in one of these
// recomputes. On a crowded p=4 tree (256 flows on 16 hosts) those
// changes taint more than the differential fill takes on, so the
// component fill runs; on a p=8 tree the differential fill does.
func TestRecomputeSteadyStateAllocs(t *testing.T) {
	for _, c := range []struct {
		p, flows int
		diff     bool // the differential fill, not the fallback, runs
	}{{4, 256, false}, {8, 200, true}} {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{P: c.p})
		if err != nil {
			t.Fatal(err)
		}
		allocs, diff, full := recomputeAllocs(t, ft, c.flows)
		if allocs != 0 {
			t.Fatalf("p=%d: warm recomputes allocate %.1f times per round, want 0", c.p, allocs)
		}
		want := "fallback"
		if c.diff {
			want = "differential fill"
		}
		if (diff > 0) != c.diff || (full > 0) == c.diff {
			t.Fatalf("p=%d: %d differential and %d fallback fills; want only the %s", c.p, diff, full, want)
		}
	}
}

// recomputeAllocs warms a run of nFlows random flows on ft, then
// measures the allocations of one round of detach, attach, link failure
// and repair, each followed by a recompute. It returns them with the
// round's differential and fallback fill counts.
func recomputeAllocs(t *testing.T, ft *topology.FatTree, nFlows int) (allocs float64, diff, full int64) {
	t.Helper()
	g := ft.Graph()
	rng := rand.New(rand.NewSource(3))
	flows := randomFlows(rng, nFlows, len(ft.Hosts()), 4e9)
	s, err := New(Config{Net: ft, Controller: &batchController{interval: 0.2, batch: 2}, Arrivals: workload.List(flows)})
	if err != nil {
		t.Fatal(err)
	}
	s.PauseAfter(int64(nFlows) + 8)
	if _, err := s.Run(); err != ErrPaused {
		t.Fatalf("Run = %v, want ErrPaused", err)
	}
	var f *Flow
	for _, a := range s.Active() {
		if len(a.links) > 2 {
			f = a
			break
		}
	}
	if f == nil || len(s.Active()) < 8 {
		t.Fatalf("want a warm run with an inter-ToR flow, have %d active flows", len(s.Active()))
	}
	fabric := f.links[1]
	if !g.IsSwitchLink(fabric) {
		t.Fatalf("link %d of flow %d is not a switch link", fabric, f.ID)
	}
	diff, full = s.diffFills, s.fullFills
	allocs = testing.AllocsPerRun(100, func() {
		s.detachLinks(f)
		s.recomputeRates()
		s.attachLinks(f)
		s.recomputeRates()
		s.SetLinkDown(fabric, true)
		s.recomputeRates()
		s.SetLinkDown(fabric, false)
		s.recomputeRates()
	})
	return allocs, s.diffFills - diff, s.fullFills - full
}

// unsized hides a source's size hint.
type unsized struct{ workload.Source }

// TestGrowFlowsAllocs pins how often a 1,000-flow run allocates its
// per-flow arrays (growFlows). With a sized source the arrays start at
// its hint, so the arrivals allocate each of the eleven once. Without
// one their shared capacity doubles from minFlowCap, five moves to
// reach 1,000; growing each by append one arrival at a time took
// about twelve.
func TestGrowFlowsAllocs(t *testing.T) {
	const n, arrays = 1000, 11
	for _, c := range []struct {
		name  string
		hint  int
		moves float64
	}{{"sized", n, 1}, {"unsized", 0, 5}} {
		allocs := testing.AllocsPerRun(5, func() {
			s := &Sim{flowHint: c.hint}
			for i := 1; i <= n; i++ {
				s.growFlows(i)
			}
		})
		// Beyond the arrays: the Sim, the slab list and its one chunk.
		if want := c.moves*arrays + 3; allocs > want {
			t.Errorf("%s: growing to %d flows one arrival at a time allocates %.0f times, want at most %.0f", c.name, n, allocs, want)
		}
	}

	ft := testFatTree(t)
	flows := randomFlows(rand.New(rand.NewSource(1)), n, len(ft.Hosts()), 1e6)
	for _, c := range []struct {
		src     workload.Source
		wantCap int
	}{{workload.List(flows), n}, {unsized{workload.List(flows)}, 1024}} {
		s, err := New(Config{Net: ft, Controller: &staticController{}, Arrivals: c.src})
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Flows) != n || cap(s.flows) != c.wantCap {
			t.Errorf("%T source: %d flows ran on arrays of capacity %d, want %d flows on capacity %d", c.src, len(r.Flows), cap(s.flows), n, c.wantCap)
		}
	}
}
