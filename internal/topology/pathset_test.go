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

// enumerator is a tree family: one whose buildPaths walks the graph
// independently of the index tables its PathSet decodes.
type enumerator interface {
	Network
	buildPaths(srcToR, dstToR NodeID) ([][]LinkID, []string)
}

// TestPathSetMatchesBuildPaths is the golden equivalence gate: over ALL
// ToR pairs of every tree family, the implicit PathSet must agree with
// the family's graph-walking enumeration on count, link sequences,
// order, and Via labels. Flow state stores (pair, PathIdx) and reports
// are pinned byte-identical across releases, so any divergence here is a
// behavior change, not a refactor. The non-tree families' enumeration
// is their PathSet, so they have no second enumeration to compare; the
// properties in pathprops_test.go cover them.
func TestPathSetMatchesBuildPaths(t *testing.T) {
	trees := 0
	for _, net := range buildNetworks(t) {
		en, ok := net.(enumerator)
		if !ok {
			continue
		}
		trees++
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
	if trees != 3 {
		t.Fatalf("checked %d tree families, want 3", trees)
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
