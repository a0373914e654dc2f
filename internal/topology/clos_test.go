package topology

import (
	"fmt"
	"strings"
	"testing"
)

func TestClosDimensions(t *testing.T) {
	tests := []struct {
		di, da     int
		tors       int
		interPaths int
	}{
		{di: 4, da: 4, tors: 4, interPaths: 16},
		{di: 8, da: 8, tors: 16, interPaths: 32},
		{di: 16, da: 16, tors: 64, interPaths: 64},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("D=%d", tc.di), func(t *testing.T) {
			cl, err := NewClos(ClosConfig{DI: tc.di, DA: tc.da})
			if err != nil {
				t.Fatal(err)
			}
			g := cl.Graph()
			if got := len(g.NodesOfKind(Core)); got != tc.di {
				t.Errorf("intermediates = %d, want %d", got, tc.di)
			}
			if got := len(g.NodesOfKind(Aggr)); got != tc.da {
				t.Errorf("aggrs = %d, want %d", got, tc.da)
			}
			if got := len(g.NodesOfKind(ToR)); got != tc.tors {
				t.Errorf("tors = %d, want %d", got, tc.tors)
			}
			tors := g.NodesOfKind(ToR)
			src, dst := tors[0], tors[len(tors)-1]
			if g.Node(src).Pod == g.Node(dst).Pod {
				t.Fatal("test expects first and last ToR in different pods")
			}
			if got := cl.PathSet(src, dst).Len(); got != tc.interPaths {
				t.Errorf("cross-pair paths = %d, want %d (4*DI)", got, tc.interPaths)
			}
		})
	}
}

func TestClosPathStructure(t *testing.T) {
	cl, err := NewClos(ClosConfig{DI: 4, DA: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph()
	tors := g.NodesOfKind(ToR)
	var src, dst NodeID = tors[0], -1
	for _, tr := range tors[1:] {
		if g.Node(tr).Pod != g.Node(src).Pod {
			dst = tr
			break
		}
	}
	if dst < 0 {
		t.Fatal("no cross-pair ToR found")
	}
	ps := cl.PathSet(src, dst)
	labels := make(map[string]bool)
	for i := 0; i < ps.Len(); i++ {
		via, links := ps.Via(i), ps.AppendLinks(i, nil)
		if labels[via] {
			t.Errorf("duplicate path label %q", via)
		}
		labels[via] = true
		if len(links) != 4 {
			t.Fatalf("cross-pair path has %d links, want 4", len(links))
		}
		for i := 1; i < len(links); i++ {
			if g.Link(links[i]).From != g.Link(links[i-1]).To {
				t.Errorf("path %q disconnected at hop %d", via, i)
			}
		}
		if g.Link(links[0]).From != src || g.Link(links[3]).To != dst {
			t.Errorf("path %q has wrong endpoints", via)
		}
	}

	// A path is identified by the (up aggr, intermediate, down aggr)
	// triple: the same intermediate appears on several distinct paths.
	perIntermediate := make(map[string]int)
	for via := range labels {
		parts := strings.Split(via, ">")
		if len(parts) != 3 {
			t.Fatalf("bad label %q", via)
		}
		perIntermediate[parts[1]]++
	}
	for mid, n := range perIntermediate {
		if n != 4 {
			t.Errorf("intermediate %s appears on %d paths, want 4 (2 up x 2 down aggrs)", mid, n)
		}
	}
}

func TestClosIntraPairPaths(t *testing.T) {
	cl, err := NewClos(ClosConfig{DI: 4, DA: 4, ToRsPerPair: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := cl.Graph()
	tors := g.NodesOfKind(ToR)
	// First two ToRs share aggregation pair 0.
	src, dst := tors[0], tors[1]
	if g.Node(src).Pod != g.Node(dst).Pod {
		t.Fatal("expected same-pair ToRs")
	}
	ps := cl.PathSet(src, dst)
	if ps.Len() != 2 {
		t.Fatalf("intra-pair paths = %d, want 2", ps.Len())
	}
	for i := 0; i < ps.Len(); i++ {
		if links := ps.AppendLinks(i, nil); len(links) != 2 {
			t.Errorf("intra-pair path %q has %d links, want 2", ps.Via(i), len(links))
		}
	}
	pair := cl.AggrPairOf(src)
	if pair != cl.AggrPairOf(dst) {
		t.Error("same-pod ToRs must share the aggregation pair")
	}
}

func TestClosConfigErrors(t *testing.T) {
	for _, cfg := range []ClosConfig{
		{DI: 0, DA: 4},
		{DI: 4, DA: 3},
		{DI: 4, DA: 0},
		{DI: 1, DA: 2, ToRsPerPair: -1},
		{DI: 4, DA: 4, HostsPerToR: -1},
	} {
		if _, err := NewClos(cfg); err == nil {
			t.Errorf("NewClos(%+v) should fail", cfg)
		}
	}
}

// buildPaths is the oracle pathset_test.go checks PathSet against: it
// walks cl.Graph() with walkUpDown.
func (cl *Clos) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	return walkUpDown(cl.Graph(), srcToR, dstToR)
}
