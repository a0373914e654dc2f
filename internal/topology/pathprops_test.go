package topology

import (
	"fmt"
	"slices"
	"testing"
)

// propFamilies enumerates every family at representative sizes: the
// smallest legal shape, the defaults-adjacent shape, and one that makes
// all path-set cases (same switch, intra-pod/group/cell, cross) occur.
// Each entry builds a fresh instance per call so PathIdx-stability
// checks can construct the same configuration twice.
func propFamilies() []struct {
	name  string
	build func() (Network, error)
} {
	return []struct {
		name  string
		build func() (Network, error)
	}{
		{"fattree-p4", func() (Network, error) { return NewFatTree(FatTreeConfig{P: 4}) }},
		{"fattree-p6", func() (Network, error) { return NewFatTree(FatTreeConfig{P: 6}) }},
		{"clos-4x4", func() (Network, error) { return NewClos(ClosConfig{DI: 4, DA: 4}) }},
		{"clos-6x8", func() (Network, error) { return NewClos(ClosConfig{DI: 6, DA: 8}) }},
		{"threetier", func() (Network, error) {
			return NewThreeTier(ThreeTierConfig{NumCores: 4, NumPods: 3, AccessPerPod: 3, HostsPerAccess: 2})
		}},
		{"dragonfly-d1", func() (Network, error) { return NewDragonfly(DragonflyConfig{D: 1, A: 2, P: 1}) }},
		{"dragonfly-d2", func() (Network, error) { return NewDragonfly(DragonflyConfig{D: 2, A: 2, P: 1}) }},
		{"dragonfly-d4", func() (Network, error) { return NewDragonfly(DragonflyConfig{D: 4, A: 3, P: 2}) }},
		{"dcell-l0", func() (Network, error) { return NewDCell(DCellConfig{N: 2, Level: 0}) }},
		{"dcell-l1", func() (Network, error) { return NewDCell(DCellConfig{N: 3, Level: 1}) }},
		{"dcell-l2", func() (Network, error) { return NewDCell(DCellConfig{N: 2, Level: 2}) }},
	}
}

// checkPairPaths asserts the path-property contract for one ordered
// pair: every path is a loop-free, link-contiguous src->dst walk over
// switch-switch links; the set is duplicate-free; Via labels are unique
// within the pair.
func checkPairPaths(t *testing.T, net Network, src, dst NodeID) {
	t.Helper()
	g := net.Graph()
	ps := net.PathSet(src, dst)
	if ps.Len() < 1 {
		t.Fatalf("pair (%d,%d): empty path set", src, dst)
	}
	if src == dst {
		if ps.Len() != 1 {
			t.Fatalf("pair (%d,%d): same-switch set has %d paths, want 1", src, dst, ps.Len())
		}
		if links := ps.AppendLinks(0, nil); len(links) != 0 {
			t.Fatalf("pair (%d,%d): same-switch path has links %v", src, dst, links)
		}
		return
	}
	seenPaths := make(map[string]int)
	seenVias := make(map[string]int)
	var buf []LinkID
	for i := 0; i < ps.Len(); i++ {
		buf = ps.AppendLinks(i, buf[:0])
		if len(buf) == 0 {
			t.Fatalf("pair (%d,%d) path %d: no links between distinct switches", src, dst, i)
		}
		visited := map[NodeID]bool{src: true}
		cur := src
		for j, id := range buf {
			l := g.Link(id)
			if l.From != cur {
				t.Fatalf("pair (%d,%d) path %d: link %d starts at %s, walk is at %s",
					src, dst, i, j, g.Node(l.From).Name, g.Node(cur).Name)
			}
			if !g.IsSwitchLink(id) {
				t.Fatalf("pair (%d,%d) path %d: link %d touches a host", src, dst, i, j)
			}
			if visited[l.To] {
				t.Fatalf("pair (%d,%d) path %d: revisits %s", src, dst, i, g.Node(l.To).Name)
			}
			visited[l.To] = true
			cur = l.To
		}
		if cur != dst {
			t.Fatalf("pair (%d,%d) path %d: walk ends at %s, not the destination",
				src, dst, i, g.Node(cur).Name)
		}
		key := fmt.Sprint(buf)
		if prev, dup := seenPaths[key]; dup {
			t.Fatalf("pair (%d,%d): paths %d and %d have identical links %v", src, dst, prev, i, buf)
		}
		seenPaths[key] = i
		via := ps.Via(i)
		if prev, dup := seenVias[via]; dup {
			t.Fatalf("pair (%d,%d): paths %d and %d share Via %q", src, dst, prev, i, via)
		}
		seenVias[via] = i
	}
}

// samplePairs returns up to maxPairs ordered attachment-switch pairs,
// deterministically strided across the full pair space (and always
// including one same-switch pair). maxPairs <= 0 means every pair.
func samplePairs(net Network, maxPairs int) [][2]NodeID {
	sw := AttachSwitches(net)
	total := len(sw) * len(sw)
	stride := 1
	if maxPairs > 0 && total > maxPairs {
		stride = total/maxPairs + 1
	}
	var pairs [][2]NodeID
	for i := 0; i < total; i += stride {
		pairs = append(pairs, [2]NodeID{sw[i/len(sw)], sw[i%len(sw)]})
	}
	return append(pairs, [2]NodeID{sw[0], sw[0]})
}

// TestPathProperties is the cross-family contract gate from the path-
// provider abstraction: whatever the resolution style (tree index
// tables or source-routed enumeration), every family's path sets are
// loop-free contiguous walks, duplicate-free, and uniquely labeled.
func TestPathProperties(t *testing.T) {
	for _, fam := range propFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			net, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range samplePairs(net, 0) {
				checkPairPaths(t, net, pair[0], pair[1])
			}
		})
	}
}

// TestPathSetSwitches is the covering-switch contract: for every
// family and pair, AppendSwitches appends exactly the sorted, unique
// upstream endpoints of every path link, after whatever buf already
// holds, which it leaves alone.
func TestPathSetSwitches(t *testing.T) {
	prefix := []NodeID{1 << 30, 7}
	for _, fam := range propFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			net, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			g := net.Graph()
			var links []LinkID
			for _, pair := range samplePairs(net, 0) {
				ps := net.PathSet(pair[0], pair[1])
				var want []NodeID
				for i := 0; i < ps.Len(); i++ {
					links = ps.AppendLinks(i, links[:0])
					for _, l := range links {
						want = append(want, g.Link(l).From)
					}
				}
				slices.Sort(want)
				want = slices.Compact(want)
				got := ps.AppendSwitches(slices.Clone(prefix))
				if !slices.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("pair (%d,%d): prefix %v became %v", pair[0], pair[1], prefix, got[:len(prefix)])
				}
				if got = got[len(prefix):]; !slices.Equal(got, want) {
					t.Fatalf("pair (%d,%d): switches %v, want %v", pair[0], pair[1], got, want)
				}
			}
		})
	}
}

// TestPathIdxStability pins enumeration determinism: two independent
// constructions of the same configuration must agree bit-identically on
// node IDs, path counts, link sequences, and Via labels. PathIdx is
// durable state in flows, reports, and checkpoints, so any divergence
// here silently corrupts resumed runs.
func TestPathIdxStability(t *testing.T) {
	for _, fam := range propFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			net1, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			net2, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			sw1, sw2 := AttachSwitches(net1), AttachSwitches(net2)
			if len(sw1) != len(sw2) {
				t.Fatalf("constructions disagree on attachment switches: %d vs %d", len(sw1), len(sw2))
			}
			var buf1, buf2 []LinkID
			for i, a := range sw1 {
				if a != sw2[i] {
					t.Fatalf("attachment switch %d: IDs %d vs %d", i, a, sw2[i])
				}
				for j, b := range sw1 {
					ps1 := net1.PathSet(a, b)
					ps2 := net2.PathSet(sw2[i], sw2[j])
					if ps1.Len() != ps2.Len() {
						t.Fatalf("pair (%d,%d): path counts %d vs %d", a, b, ps1.Len(), ps2.Len())
					}
					for k := 0; k < ps1.Len(); k++ {
						buf1 = ps1.AppendLinks(k, buf1[:0])
						buf2 = ps2.AppendLinks(k, buf2[:0])
						if len(buf1) != len(buf2) {
							t.Fatalf("pair (%d,%d) path %d: lengths %d vs %d", a, b, k, len(buf1), len(buf2))
						}
						for x := range buf1 {
							if buf1[x] != buf2[x] {
								t.Fatalf("pair (%d,%d) path %d link %d: %d vs %d",
									a, b, k, x, buf1[x], buf2[x])
							}
						}
						if v1, v2 := ps1.Via(k), ps2.Via(k); v1 != v2 {
							t.Fatalf("pair (%d,%d) path %d: Via %q vs %q", a, b, k, v1, v2)
						}
					}
				}
			}
		})
	}
}

// TestNumPathsMatchesPathSet pins each family's closed-form NumPaths to
// the actual enumeration.
func TestNumPathsMatchesPathSet(t *testing.T) {
	type counter interface {
		NumPaths(a, b NodeID) int
	}
	for _, fam := range propFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			net, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			nc, ok := net.(counter)
			if !ok {
				t.Skip("family has no closed-form NumPaths")
			}
			sw := AttachSwitches(net)
			for _, a := range sw {
				for _, b := range sw {
					if got, want := nc.NumPaths(a, b), net.PathSet(a, b).Len(); got != want {
						t.Fatalf("pair (%d,%d): NumPaths=%d, PathSet.Len()=%d", a, b, got, want)
					}
				}
			}
		})
	}
}
