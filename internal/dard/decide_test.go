package dard

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dard/internal/ctlmsg"
	"dard/internal/flowsim"
	"dard/internal/topology"
	"dard/internal/workload"
)

// Decide is the test oracle for a monitor's decision: Algorithm 1's rule
// stated over a whole path state vector PV and flow vector FV. Find the
// host's active path with the smallest BoNF and the globally
// largest-BoNF path; propose shifting one flow if placing it on the
// target (estimated as bandwidth/(flows+1) of the target's bottleneck)
// still beats the current minimum by more than delta. The second result
// is false when no shift should happen. Rounds decide through
// pathReader.decide, which must agree with it (FuzzDecideFromView).
func Decide(pv []PathState, fv []int, delta float64) (Decision, bool) {
	if len(pv) != len(fv) || len(pv) < 2 {
		return Decision{}, false
	}
	minIdx, maxIdx := -1, -1
	minBoNF := math.Inf(1)
	maxBoNF := math.Inf(-1)
	for i := range pv {
		if fv[i] > 0 && pv[i].BoNF < minBoNF {
			minBoNF = pv[i].BoNF
			minIdx = i
		}
		if pv[i].BoNF > maxBoNF {
			maxBoNF = pv[i].BoNF
			maxIdx = i
		}
	}
	if minIdx < 0 || maxIdx < 0 || minIdx == maxIdx {
		return Decision{}, false
	}
	est := pv[maxIdx].Bandwidth / float64(pv[maxIdx].Flows+1)
	if est-minBoNF <= delta {
		return Decision{}, false
	}
	return Decision{From: minIdx, To: maxIdx}, true
}

// decideNets are the fabrics FuzzDecideFromView draws pairs from: a
// grouped tree, an ungrouped tree and a source-routed family, each big
// enough that its pairs have many paths to cut scans short on.
var decideNets = sync.OnceValues(func() ([]topology.Network, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 8})
	if err != nil {
		return nil, err
	}
	clos, err := topology.NewClos(topology.ClosConfig{DI: 6, DA: 8})
	if err != nil {
		return nil, err
	}
	df, err := topology.NewDragonfly(topology.DragonflyConfig{D: 4, A: 3, P: 1})
	if err != nil {
		return nil, err
	}
	return []topology.Network{ft, clos, df}, nil
})

// Port-state regimes of a decideCase: the pair's links mixed, all idle
// (no elephants, every path +Inf), or all busy (every link carries
// elephants, so the max scan runs to the end).
const (
	regimeMixed = iota
	regimeIdle
	regimeBusy
	numRegimes
)

// decideInput is one decision to check: a pair's path set, its port
// view read at a collector's pin and as it stands, the oracle's PV
// folded at the pin, a flow vector and a delta.
type decideInput struct {
	ps      topology.PathSet
	pinned  linkReader
	current linkReader
	pv      []PathState
	fv      []int
	delta   float64
}

// decideCase builds one pair's port view from seed: every switch port
// reported, some changed before a collector pins the view, and more
// changed after. Bandwidths and elephant counts come from small sets so
// BoNF ties are common; failed (0 Mbps) ports appear unless failProb is
// zero.
func decideCase(tb testing.TB, net topology.Network, seed int64, regime int, failProb float64) decideInput {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := net.Graph()
	attach := topology.AttachSwitches(net)
	var ps topology.PathSet
	for try := 0; try < 16; try++ {
		src, dst := attach[rng.Intn(len(attach))], attach[rng.Intn(len(attach))]
		if src != dst {
			if ps = net.PathSet(src, dst); ps.Len() >= 2 {
				break
			}
		}
	}
	var links []topology.LinkID
	for i := 0; i < ps.Len(); i++ {
		links = ps.AppendLinks(i, links)
	}
	port := func(l topology.LinkID) ctlmsg.PortState {
		p := ctlmsg.PortState{LinkID: uint32(l), BandwidthMbps: 1000}
		if rng.Intn(4) == 0 {
			p.BandwidthMbps = 100
		}
		if rng.Float64() < failProb {
			p.BandwidthMbps = 0
		}
		switch regime {
		case regimeBusy:
			p.ElephantFlows = uint32(1 + rng.Intn(4))
		case regimeMixed:
			if rng.Intn(2) == 0 {
				p.ElephantFlows = uint32(rng.Intn(5))
			}
		}
		return p
	}
	v := newPortView(g.NumLinks())
	set := func(p ctlmsg.PortState) {
		if err := v.set(p); err != nil {
			tb.Fatal(err)
		}
	}
	for l := range topology.LinkID(g.NumLinks()) {
		if g.IsSwitchLink(l) {
			set(port(l))
		}
	}
	churn := func() {
		for range rng.Intn(3 * len(links)) {
			set(port(links[rng.Intn(len(links))]))
		}
	}
	churn()
	c := &Collector{}
	v.pin(c)
	churn()
	in := decideInput{ps: ps, pinned: v.at(c.epoch), current: v.at(v.epoch), fv: make([]int, ps.Len())}
	var err error
	if in.pv, _, err = foldPV(nil, nil, ps, in.pinned); err != nil {
		tb.Fatal(err)
	}
	for range 1 + rng.Intn(4) {
		in.fv[rng.Intn(len(in.fv))] += 1 + rng.Intn(2)
	}
	in.delta = []float64{0, 10e6, 400e6}[rng.Intn(3)]
	return in
}

// checkDecideFromView requires the on-demand decision, read from the
// view at the pin and from the materialized PV, to equal Decide's, and
// the view read to fold no more links than the active paths and a full
// fold hold. It returns the input and whether Decide shifts.
func checkDecideFromView(t *testing.T, net topology.Network, seed int64, regime int, failProb float64) (decideInput, bool) {
	in := decideCase(t, net, seed, regime, failProb)
	var active []int
	for p, n := range in.fv {
		if n > 0 {
			active = append(active, p)
		}
	}
	want, wantOK := Decide(in.pv, in.fv, in.delta)
	view := pathReader{ps: in.ps, r: in.pinned}
	got, ok, err := view.decide(active, in.delta)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || ok != wantOK {
		t.Fatalf("seed %d regime %d: from the view %+v %v, Decide %+v %v (pv %v, fv %v, delta %g)",
			seed, regime, got, ok, want, wantOK, in.pv, in.fv, in.delta)
	}
	bound := 0
	for i := 0; i < in.ps.Len(); i++ {
		bound += len(in.ps.AppendLinks(i, nil))
	}
	for _, p := range active {
		bound += len(in.ps.AppendLinks(p, nil))
	}
	if view.links > bound {
		t.Fatalf("seed %d: the view read folded %d links, more than the %d of the active paths and a full fold", seed, view.links, bound)
	}
	mat := pathReader{pv: in.pv}
	if got, ok, err = mat.decide(active, in.delta); err != nil || got != want || ok != wantOK {
		t.Fatalf("seed %d regime %d: from the PV %+v %v (%v), Decide %+v %v", seed, regime, got, ok, err, want, wantOK)
	}
	return in, wantOK
}

// FuzzDecideFromView requires a round's decision, read on demand from
// the port view at its collector's pin, to be Decide's answer over the
// PV folded there: with ports changed after the pin, failed links, BoNF
// ties, and idle, busy and mixed pairs, on a fat-tree, a Clos and a
// dragonfly.
func FuzzDecideFromView(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		for regime := range numRegimes {
			f.Add(seed, uint8(seed), uint8(regime), uint8(seed*20))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, family, regime, fail uint8) {
		nets, err := decideNets()
		if err != nil {
			t.Fatal(err)
		}
		checkDecideFromView(t, nets[int(family)%len(nets)], seed, int(regime)%numRegimes, float64(fail%128)/512)
	})
}

// TestDecideFromViewSeeds runs the decision check over more seeds than
// the fuzz corpus, and requires them to have covered shifts, declined
// rounds, ties between paths' BoNF, dead paths, and pins whose PV the
// later changes would have altered.
func TestDecideFromViewSeeds(t *testing.T) {
	nets, err := decideNets()
	if err != nil {
		t.Fatal(err)
	}
	var shifts, declined, ties, dead, rewound int
	for seed := int64(1); seed <= 200; seed++ {
		for fi, net := range nets {
			for regime := range numRegimes {
				in, shift := checkDecideFromView(t, net, seed*7+int64(fi), regime, []float64{0, 0.02, 0.2}[seed%3])
				if shift {
					shifts++
				} else {
					declined++
				}
				bonfs := make([]float64, len(in.pv))
				for i, st := range in.pv {
					bonfs[i] = st.BoNF
				}
				slices.Sort(bonfs)
				if len(slices.Compact(bonfs)) < len(in.pv) {
					ties++
				}
				if bonfs[0] == 0 {
					dead++
				}
				now, _, err := foldPV(nil, nil, in.ps, in.current)
				if err != nil {
					t.Fatal(err)
				}
				if !samePV(now, in.pv) {
					rewound++
				}
			}
		}
	}
	t.Logf("shifts %d, declined %d, ties %d, dead %d, rewound %d", shifts, declined, ties, dead, rewound)
	if shifts == 0 || declined == 0 || ties == 0 || dead == 0 || rewound == 0 {
		t.Error("want all non-zero")
	}
}

// TestRoundReadsFewPaths runs a scheduling round on the monitor of one
// elephant on an otherwise idle p=32 fat-tree, whose pair has 256
// four-link paths: the round must decide from the pinned view, leaving
// the fold pending, and fold no more than a handful of paths' links. A
// full fold reads 1,024. The round reads the elephant's path, then
// walks the paths from 0: each that shares a loaded link with the
// elephant's path stops at that link, and the first idle one ends the
// walk, so at most 16 paths (an aggr's core group) start a fold.
func TestRoundReadsFewPaths(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 32})
	if err != nil {
		t.Fatal(err)
	}
	dst := len(ft.Hosts()) - 1 // the last pod
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: dst, SizeBits: 40e9}}
	ctl := New(Options{QueryInterval: 0.5, ScheduleInterval: 1, ScheduleJitter: 0.1})
	var checked bool
	probe := &hookController{Controller: ctl, hook: func(s *flowsim.Sim) {
		h := ctl.hosts[s.Flow(0).Src]
		if h == nil || len(h.monitors) != 1 {
			return
		}
		for _, m := range h.monitors {
			if !m.coll.pending {
				return
			}
			checked = true
			if n := m.ps.Len(); n != 256 {
				t.Fatalf("pair has %d paths, want 256", n)
			}
			before := ctl.Shifts
			ctl.selfishSchedule(s, m)
			if ctl.Shifts != before {
				t.Error("a lone elephant shifted, though an idle path only matches its BoNF")
			}
			if !m.coll.pending {
				t.Error("the round materialized the PV")
			}
			t.Logf("the round folded %d links", m.viewLinks)
			const handful = 2*4 + 16 + 4 // two paths, 16 one-link stops, the idle path
			if m.viewLinks == 0 || m.viewLinks > handful {
				t.Errorf("the round folded %d links, want 1..%d", m.viewLinks, handful)
			}
		}
	}}
	s, err := flowsim.New(flowsim.Config{Net: ft, Controller: probe, Arrivals: workload.List(flows), Seed: 2, ElephantAge: 0.1, MaxTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("hook never saw a pending monitor")
	}
}
