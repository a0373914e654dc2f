package topology

import (
	"slices"
	"testing"
)

// buildNetworks returns small instances of all five topology families,
// large enough that inter-pod, intra-pod, and same-switch cases all
// occur and the index decodings are exercised beyond their smallest
// shapes.
func buildNetworks(t *testing.T) []Network {
	t.Helper()
	ft, err := NewFatTree(FatTreeConfig{P: 6})
	if err != nil {
		t.Fatalf("fat-tree: %v", err)
	}
	cl, err := NewClos(ClosConfig{DI: 6, DA: 8})
	if err != nil {
		t.Fatalf("clos: %v", err)
	}
	tt, err := NewThreeTier(ThreeTierConfig{NumCores: 4, NumPods: 3, AccessPerPod: 3, HostsPerAccess: 2})
	if err != nil {
		t.Fatalf("three-tier: %v", err)
	}
	df, err := NewDragonfly(DragonflyConfig{D: 4, A: 3, P: 2})
	if err != nil {
		t.Fatalf("dragonfly: %v", err)
	}
	dc, err := NewDCell(DCellConfig{N: 3, Level: 1})
	if err != nil {
		t.Fatalf("dcell: %v", err)
	}
	return []Network{ft, cl, tt, df, dc}
}

// treeNetworks returns the tree families at the sizes the path gates
// run: the fat-tree of the testbed (p=4) and of the goldens and served
// jobs (p=8 with one host per ToR) beside an odd-half one (p=6); Clos
// shapes whose top fan-out (DI) differs from the aggrs per pair (2), so
// a swapped index decodes to a different path; and the three-tier
// network at its paper defaults beside a small one.
func treeNetworks(t *testing.T) []Network {
	t.Helper()
	var nets []Network
	for _, c := range []interface{ Build() (Network, error) }{
		FatTreeConfig{P: 4},
		FatTreeConfig{P: 6},
		FatTreeConfig{P: 8, HostsPerToR: 1},
		ClosConfig{DI: 6, DA: 8},
		ClosConfig{DI: 3, DA: 4, ToRsPerPair: 2},
		ThreeTierConfig{NumCores: 4, NumPods: 3, AccessPerPod: 3, HostsPerAccess: 2},
		ThreeTierConfig{},
	} {
		net, err := c.Build()
		if err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		nets = append(nets, net)
	}
	return nets
}

// enumerator is a tree family: one whose test-only buildPaths walks the
// graph, independently of the uplink tables its PathSet decodes, and
// lists the pair's paths in PathIdx order with their Via labels.
type enumerator interface {
	Network
	buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string)
}

// aggrsOf returns the aggregation switches one link from n, in ID order.
func aggrsOf(g *Graph, n NodeID) []NodeID {
	var res []NodeID
	for _, m := range g.Neighbors(n) {
		if g.Node(m).Kind == Aggr {
			res = append(res, m)
		}
	}
	slices.Sort(res)
	return res
}

// walkIntraPod enumerates the two-hop walks from src to dst through an
// aggregation switch, one per aggr linked to both, in ID order, labeled
// by the aggr: the paths between distinct ToRs of one pod, or the up
// and down halves of a fat-tree path through a core.
func walkIntraPod(g *Graph, src, dst NodeID) ([][]LinkID, []string) {
	var links [][]LinkID
	var vias []string
	for _, aggr := range aggrsOf(g, src) {
		if down, ok := g.LinkBetween(aggr, dst); ok {
			links = append(links, []LinkID{mustLink(g, src, aggr), down})
			vias = append(vias, g.Node(aggr).Name)
		}
	}
	return links, vias
}

// walkUpDown enumerates the paths between ToRs of a tree in which every
// aggr reaches every top switch (Clos, three-tier). Across pods it nests
// the uphill aggr, the top switch and the downhill aggr, each in ID
// order, and labels a path "aggrU>top>aggrD".
func walkUpDown(g *Graph, src, dst NodeID) ([][]LinkID, []string) {
	switch {
	case src == dst:
		return [][]LinkID{nil}, []string{"direct"}
	case g.Node(src).Pod == g.Node(dst).Pod:
		return walkIntraPod(g, src, dst)
	}
	var links [][]LinkID
	var vias []string
	for _, up := range aggrsOf(g, src) {
		for _, top := range g.NodesOfKind(Core) {
			for _, down := range aggrsOf(g, dst) {
				links = append(links, []LinkID{
					mustLink(g, src, up),
					mustLink(g, up, top),
					mustLink(g, top, down),
					mustLink(g, down, dst),
				})
				vias = append(vias, joinVia(g.Node(up).Name, g.Node(top).Name, g.Node(down).Name))
			}
		}
	}
	return links, vias
}

// TestPathSetMatchesBuildPaths is the golden equivalence gate: over ALL
// ToR pairs of every network treeNetworks builds, the implicit PathSet
// must agree with the family's graph-walking enumeration on count, link
// sequences, order, and Via labels. Flow state stores (pair, PathIdx) and reports
// are pinned byte-identical across releases, so any divergence here is a
// behavior change, not a refactor. The non-tree families' enumeration
// is their PathSet, so they have no second enumeration to compare; the
// properties in pathprops_test.go cover them.
func TestPathSetMatchesBuildPaths(t *testing.T) {
	for _, net := range treeNetworks(t) {
		en, ok := net.(enumerator)
		if !ok {
			t.Fatalf("%s has no buildPaths oracle", net.Name())
		}
		t.Run(net.Name(), func(t *testing.T) {
			tors := AttachSwitches(net)
			var buf []LinkID
			for _, a := range tors {
				for _, b := range tors {
					wantLinks, wantVias := en.buildPaths(a, b)
					ps := net.PathSet(a, b)
					if ps.Len() != len(wantLinks) {
						t.Fatalf("pair (%d,%d): PathSet.Len()=%d, buildPaths has %d paths",
							a, b, ps.Len(), len(wantLinks))
					}
					for i, w := range wantLinks {
						buf = ps.AppendLinks(i, buf[:0])
						if !slices.Equal(buf, w) {
							t.Fatalf("pair (%d,%d) path %d: links %v, want %v", a, b, i, buf, w)
						}
						if via := ps.Via(i); via != wantVias[i] {
							t.Fatalf("pair (%d,%d) path %d: Via %q, want %q", a, b, i, via, wantVias[i])
						}
					}
				}
			}
		})
	}
}

// TestPathSetAppendSemantics checks that AppendLinks appends rather than
// overwrites and that the direct path appends nothing.
func TestPathSetAppendSemantics(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	tors := ft.Graph().NodesOfKind(ToR)
	src, dst := tors[0], tors[len(tors)-1]
	ps := ft.PathSet(src, dst)
	buf := []LinkID{999}
	buf = ps.AppendLinks(0, buf)
	if len(buf) != 5 || buf[0] != 999 {
		t.Fatalf("AppendLinks must append after existing entries, got %v", buf)
	}
	direct := ft.PathSet(src, src)
	if direct.Len() != 1 {
		t.Fatalf("same-ToR PathSet has %d paths, want 1", direct.Len())
	}
	if got := direct.AppendLinks(0, buf[:0]); len(got) != 0 {
		t.Fatalf("direct path appended links: %v", got)
	}
	if via := direct.Via(0); via != "direct" {
		t.Fatalf("direct path Via = %q", via)
	}
}

// TestPathSetLinkResolutionAllocs is the tier-1 alloc gate: resolving
// the links of any path through a PathSet must not allocate when the
// caller's buffer has capacity.
func TestPathSetLinkResolutionAllocs(t *testing.T) {
	for _, net := range buildNetworks(t) {
		t.Run(net.Name(), func(t *testing.T) {
			tors := AttachSwitches(net)
			src, dst := tors[0], tors[len(tors)-1]
			ps := net.PathSet(src, dst)
			buf := make([]LinkID, 0, 32)
			idx := 0
			allocs := testing.AllocsPerRun(100, func() {
				ps = net.PathSet(src, dst)
				buf = ps.AppendLinks(idx, buf[:0])
				idx = (idx + 1) % ps.Len()
			})
			if allocs != 0 {
				t.Fatalf("PathSet link resolution allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}

// TestPathSetSwitchesAllocs: listing a set's covering switches into a
// buffer that already has capacity allocates nothing, for a pair within
// a pod and for pairs across pods in either direction. DARD builds the
// list once per monitor.
func TestPathSetSwitchesAllocs(t *testing.T) {
	for _, net := range buildNetworks(t) {
		t.Run(net.Name(), func(t *testing.T) {
			tors := AttachSwitches(net)
			first, last := tors[0], tors[len(tors)-1]
			pairs := [][2]NodeID{{first, tors[1]}, {first, last}, {last, first}}
			buf := make([]NodeID, 0, 256)
			for _, pair := range pairs {
				net.PathSet(pair[0], pair[1]) // a source-routed pair builds its entry once
			}
			idx := 0
			allocs := testing.AllocsPerRun(100, func() {
				pair := pairs[idx%len(pairs)]
				buf = net.PathSet(pair[0], pair[1]).AppendSwitches(buf[:0])
				idx++
			})
			if allocs != 0 {
				t.Fatalf("PathSet.AppendSwitches allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}
