package topology

import (
	"math"
	"testing"
)

func TestThreeTierDefaultsMatchPaper(t *testing.T) {
	tt, err := NewThreeTier(ThreeTierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tt.Cores()); got != 8 {
		t.Errorf("cores = %d, want 8", got)
	}
	if got := tt.AccessOversubscription(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("access oversubscription = %g, want 2.5", got)
	}
	if got := tt.AggrOversubscription(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("aggregation oversubscription = %g, want 1.5", got)
	}
	if got := len(tt.Hosts()); got != 4*6*10 {
		t.Errorf("hosts = %d, want 240", got)
	}
}

func TestThreeTierPaths(t *testing.T) {
	tt, err := NewThreeTier(ThreeTierConfig{NumPods: 2, AccessPerPod: 2, HostsPerAccess: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := tt.Graph()
	tors := g.NodesOfKind(ToR)
	var src, dstIntra, dstInter NodeID = tors[0], -1, -1
	for _, tr := range tors[1:] {
		if g.Node(tr).Pod == g.Node(src).Pod && dstIntra < 0 {
			dstIntra = tr
		}
		if g.Node(tr).Pod != g.Node(src).Pod && dstInter < 0 {
			dstInter = tr
		}
	}
	if dstIntra < 0 || dstInter < 0 {
		t.Fatal("missing intra/inter destinations")
	}

	intra := tt.PathSet(src, dstIntra)
	if intra.Len() != 2 {
		t.Errorf("intra-pod paths = %d, want 2", intra.Len())
	}
	inter := tt.PathSet(src, dstInter)
	if want := 2 * 8 * 2; inter.Len() != want {
		t.Errorf("inter-pod paths = %d, want %d", inter.Len(), want)
	}
	for p := 0; p < inter.Len(); p++ {
		via, links := inter.Via(p), inter.AppendLinks(p, nil)
		if len(links) != 4 {
			t.Fatalf("inter-pod path %q has %d links, want 4", via, len(links))
		}
		for i := 1; i < len(links); i++ {
			if g.Link(links[i]).From != g.Link(links[i-1]).To {
				t.Errorf("path %q disconnected at hop %d", via, i)
			}
		}
	}

	// Oversubscription shows up as heterogeneous capacities.
	up := g.Link(tt.HostUplink(tt.Hosts()[0]))
	if up.Capacity != 1e9 {
		t.Errorf("host link capacity = %g, want 1e9", up.Capacity)
	}
	accUp := g.Link(intra.AppendLinks(0, nil)[0])
	if accUp.Capacity != 2e9 {
		t.Errorf("access uplink capacity = %g, want 2e9", accUp.Capacity)
	}
	aggrUp := g.Link(inter.AppendLinks(0, nil)[1])
	if aggrUp.Capacity != 1e9 {
		t.Errorf("aggregation uplink capacity = %g, want 1e9", aggrUp.Capacity)
	}
}

func TestThreeTierConfigErrors(t *testing.T) {
	if _, err := NewThreeTier(ThreeTierConfig{NumCores: -1}); err == nil {
		t.Error("negative core count should fail")
	}
	if _, err := NewThreeTier(ThreeTierConfig{HostCapacity: -5}); err == nil {
		t.Error("negative capacity should fail")
	}
}

// buildPaths is the oracle pathset_test.go checks PathSet against: it
// walks tt.Graph() with walkUpDown.
func (tt *ThreeTier) buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string) {
	return walkUpDown(tt.Graph(), srcToR, dstToR)
}
