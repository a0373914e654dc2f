package topology

import (
	"fmt"
	"testing"
)

func TestFatTreeDimensions(t *testing.T) {
	tests := []struct {
		p           int
		hosts       int
		cores       int
		aggrs       int
		tors        int
		interPaths  int
		intraPaths  int
		totalSwLink int // directed switch-switch links
	}{
		{p: 4, hosts: 16, cores: 4, aggrs: 8, tors: 8, interPaths: 4, intraPaths: 2, totalSwLink: 2 * (16 + 16)},
		{p: 8, hosts: 128, cores: 16, aggrs: 32, tors: 32, interPaths: 16, intraPaths: 4, totalSwLink: 2 * (128 + 128)},
		{p: 16, hosts: 1024, cores: 64, aggrs: 128, tors: 128, interPaths: 64, intraPaths: 8, totalSwLink: 2 * (1024 + 1024)},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("p=%d", tc.p), func(t *testing.T) {
			ft, err := NewFatTree(FatTreeConfig{P: tc.p})
			if err != nil {
				t.Fatal(err)
			}
			g := ft.Graph()
			if got := len(ft.Hosts()); got != tc.hosts {
				t.Errorf("hosts = %d, want %d", got, tc.hosts)
			}
			if got := len(g.NodesOfKind(Core)); got != tc.cores {
				t.Errorf("cores = %d, want %d", got, tc.cores)
			}
			if got := len(g.NodesOfKind(Aggr)); got != tc.aggrs {
				t.Errorf("aggrs = %d, want %d", got, tc.aggrs)
			}
			if got := len(g.NodesOfKind(ToR)); got != tc.tors {
				t.Errorf("tors = %d, want %d", got, tc.tors)
			}
			swLinks := 0
			for i := 0; i < g.NumLinks(); i++ {
				if g.IsSwitchLink(LinkID(i)) {
					swLinks++
				}
			}
			if swLinks != tc.totalSwLink {
				t.Errorf("switch links = %d, want %d", swLinks, tc.totalSwLink)
			}

			// Path counts: p^2/4 across pods, p/2 within a pod.
			tor00 := ft.ToRsOfPod(0)[0]
			tor01 := ft.ToRsOfPod(0)[1]
			tor10 := ft.ToRsOfPod(1)[0]
			if got := ft.PathSet(tor00, tor10).Len(); got != tc.interPaths {
				t.Errorf("inter-pod paths = %d, want %d", got, tc.interPaths)
			}
			if got := ft.NumPaths(tor00, tor10); got != tc.interPaths {
				t.Errorf("NumPaths inter = %d, want %d", got, tc.interPaths)
			}
			if got := ft.PathSet(tor00, tor01).Len(); got != tc.intraPaths {
				t.Errorf("intra-pod paths = %d, want %d", got, tc.intraPaths)
			}
			if got := ft.PathSet(tor00, tor00).Len(); got != 1 {
				t.Errorf("same-ToR paths = %d, want 1", got)
			}
		})
	}
}

func TestFatTreePathStructure(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	src := ft.ToRsOfPod(0)[0]
	dst := ft.ToRsOfPod(2)[1]
	ps := ft.PathSet(src, dst)
	seenVia := make(map[string]bool)
	for i := 0; i < ps.Len(); i++ {
		via, links := ps.Via(i), ps.AppendLinks(i, nil)
		if seenVia[via] {
			t.Errorf("duplicate path label %q", via)
		}
		seenVia[via] = true
		if len(links) != 4 {
			t.Fatalf("inter-pod path %q has %d links, want 4", via, len(links))
		}
		// Path must be connected: each link starts where the previous ended.
		for i := 1; i < len(links); i++ {
			if g.Link(links[i]).From != g.Link(links[i-1]).To {
				t.Errorf("path %q is disconnected at hop %d", via, i)
			}
		}
		if g.Link(links[0]).From != src {
			t.Errorf("path %q does not start at source ToR", via)
		}
		if g.Link(links[3]).To != dst {
			t.Errorf("path %q does not end at destination ToR", via)
		}
		// Tier sequence: ToR -> Aggr -> Core -> Aggr -> ToR.
		wantKinds := []NodeKind{Aggr, Core, Aggr, ToR}
		for i, l := range links {
			if k := g.Node(g.Link(l).To).Kind; k != wantKinds[i] {
				t.Errorf("path %q hop %d lands on %v, want %v", via, i, k, wantKinds[i])
			}
		}
	}
	// Each of the 4 cores must appear exactly once.
	for c := 1; c <= 4; c++ {
		if !seenVia[fmt.Sprintf("core%d", c)] {
			t.Errorf("no path via core%d", c)
		}
	}
}

func TestFatTreeHostsPerToROverride(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{P: 8, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ft.Hosts()); got != 32 {
		t.Errorf("hosts = %d, want 32 (one per ToR)", got)
	}
	for _, h := range ft.Hosts() {
		tor := ft.ToROf(h)
		if ft.Graph().Node(tor).Kind != ToR {
			t.Fatalf("host %v attached to non-ToR", h)
		}
		up := ft.Graph().Link(ft.HostUplink(h))
		if up.From != h || up.To != tor {
			t.Errorf("uplink endpoints wrong for host %v", h)
		}
		down := ft.Graph().Link(ft.HostDownlink(h))
		if down.From != tor || down.To != h {
			t.Errorf("downlink endpoints wrong for host %v", h)
		}
	}
}

func TestFatTreeConfigErrors(t *testing.T) {
	for _, cfg := range []FatTreeConfig{
		{P: 3},
		{P: 0},
		{P: 5},
		{P: 4, LinkCapacity: -1},
		{P: 4, HostsPerToR: -2},
	} {
		if _, err := NewFatTree(cfg); err == nil {
			t.Errorf("NewFatTree(%+v) should fail", cfg)
		}
	}
}

func TestFatTreeDefaultCapacity(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := ft.Graph().Link(0)
	if l.Capacity != 1e9 {
		t.Errorf("default capacity = %g, want 1e9", l.Capacity)
	}
	if l.Delay != 0.1e-3 {
		t.Errorf("default delay = %g, want 0.1ms", l.Delay)
	}
}

// buildPaths enumerates the paths from srcToR to dstToR by walking the
// graph, in PathIdx order: intra-pod paths go via each aggr the two ToRs
// share; inter-pod paths via each core in ID order, labeled by the core
// ("core1".."coreN" as in the paper's Figure 1), through the one aggr of
// each pod that reaches it. It is the oracle pathset_test.go checks
// PathSet against.
func (ft *FatTree) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	g := ft.Graph()
	switch {
	case srcToR == dstToR:
		return [][]LinkID{nil}, []string{"direct"}
	case g.Node(srcToR).Pod == g.Node(dstToR).Pod:
		return walkIntraPod(g, srcToR, dstToR)
	}
	var links [][]LinkID
	var vias []string
	for _, core := range g.NodesOfKind(Core) {
		up, _ := walkIntraPod(g, srcToR, core)
		down, _ := walkIntraPod(g, core, dstToR)
		if len(up) != 1 || len(down) != 1 {
			panic(fmt.Sprintf("core %s reaches %d aggrs of the source pod and %d of the destination's, want 1 each",
				g.Node(core).Name, len(up), len(down)))
		}
		links = append(links, append(up[0], down[0]...))
		vias = append(vias, g.Node(core).Name)
	}
	return links, vias
}
