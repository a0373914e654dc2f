package addressing

import (
	"fmt"
	"testing"

	"dard/internal/topology"
)

func buildFatTree(t *testing.T, p int) (*topology.FatTree, *Plan) {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: p})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(ft)
	if err != nil {
		t.Fatal(err)
	}
	return ft, plan
}

func TestFatTreeAddressCounts(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	// Every host gets p^2/4 addresses, one per core (§2.3).
	for _, h := range ft.Hosts() {
		if got := len(plan.AddressesOf(h)); got != 4 {
			t.Errorf("host %s has %d addresses, want 4", ft.Graph().Node(h).Name, got)
		}
	}
	// Every ToR gets one prefix per core as well.
	for _, tor := range ft.Graph().NodesOfKind(topology.ToR) {
		if got := len(plan.Assignments(tor)); got != 4 {
			t.Errorf("ToR %s has %d prefixes, want 4", ft.Graph().Node(tor).Name, got)
		}
	}
	// Aggrs get one prefix per core they attach to (p/2).
	for _, a := range ft.Graph().NodesOfKind(topology.Aggr) {
		if got := len(plan.Assignments(a)); got != 2 {
			t.Errorf("aggr %s has %d prefixes, want 2", ft.Graph().Node(a).Name, got)
		}
	}
}

func TestFatTreeAddressesUnique(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	seen := make(map[Address]string)
	for _, h := range ft.Hosts() {
		for _, a := range plan.AddressesOf(h) {
			name := ft.Graph().Node(h).Name
			if prev, dup := seen[a]; dup {
				t.Errorf("address %v assigned to both %s and %s", a, prev, name)
			}
			seen[a] = name
		}
	}
}

func TestAddressEncodesChain(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	g := ft.Graph()
	// One end host address uniquely encodes the sequence of upper-level
	// switches that allocated it (§2.3).
	for _, h := range ft.Hosts() {
		for _, asg := range plan.Assignments(h) {
			if len(asg.Chain) != 4 {
				t.Fatalf("host chain length %d, want 4", len(asg.Chain))
			}
			kinds := []topology.NodeKind{topology.Core, topology.Aggr, topology.ToR, topology.Host}
			for i, n := range asg.Chain {
				if g.Node(n).Kind != kinds[i] {
					t.Errorf("chain[%d] of %v is %v, want %v", i, asg.Prefix, g.Node(n).Kind, kinds[i])
				}
			}
			// The root group value identifies the root's 1-based index.
			root := asg.Chain[0]
			if int(asg.Addr()[0]) != g.Node(root).Index+1 {
				t.Errorf("address %v root group != root index %d", asg.Addr(), g.Node(root).Index)
			}
		}
	}
}

// TestTables2And3 reproduces the shape of the paper's Table 2 (aggr's
// downhill and uphill tables) and Table 3 (the flat destination-only
// table) on the p=4 fat-tree of Figure 2.
func TestTables2And3(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	g := ft.Graph()
	aggr := ft.AggrsOfPod(0)[0] // "aggr1" of Figure 2
	tables := plan.TablesOf(aggr)
	if tables == nil {
		t.Fatal("no tables for aggr")
	}
	// Downhill: 2 ToRs x 2 trees = 4 entries of length 3 (/26 in IPv4).
	if got := len(tables.Downhill); got != 4 {
		t.Fatalf("downhill entries = %d, want 4", got)
	}
	for _, e := range tables.Downhill {
		if e.Prefix.Len != 3 {
			t.Errorf("downhill prefix %v has length %d, want 3", e.Prefix, e.Prefix.Len)
		}
		if k := g.Node(g.Link(e.Link).To).Kind; k != topology.ToR {
			t.Errorf("downhill entry %v points at %v, want ToR", e.Prefix, k)
		}
	}
	// Uphill: one root prefix per attached core = 2 entries of length 1
	// (/14 in IPv4), pointing at the cores.
	if got := len(tables.Uphill); got != 2 {
		t.Fatalf("uphill entries = %d, want 2", got)
	}
	for _, e := range tables.Uphill {
		if e.Prefix.Len != 1 {
			t.Errorf("uphill prefix %v has length %d, want 1", e.Prefix, e.Prefix.Len)
		}
		if k := g.Node(g.Link(e.Link).To).Kind; k != topology.Core {
			t.Errorf("uphill entry %v points at %v, want core", e.Prefix, k)
		}
	}
	// Table 3: the flat table merges both, 6 entries, ordered
	// longest-prefix-first so a linear scan is an LPM.
	flat := tables.FlatTable()
	if got := len(flat); got != 6 {
		t.Fatalf("flat table entries = %d, want 6", got)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i].Prefix.Len > flat[i-1].Prefix.Len {
			t.Error("flat table not sorted longest-prefix-first")
		}
	}
	// Core switches only have downhill tables (§2.3).
	core := ft.Cores()[0]
	ct := plan.TablesOf(core)
	if len(ct.Uphill) != 0 {
		t.Errorf("core has %d uphill entries, want 0", len(ct.Uphill))
	}
	if len(ct.Downhill) != 4 {
		t.Errorf("core downhill entries = %d, want 4 (one pod subtree per port)", len(ct.Downhill))
	}
}

// TestRoutingFollowsEncodedPath is the central addressing property: for
// every equal-cost path between sampled ToR pairs, the address pair
// returned by PathAddresses routes a packet along exactly that path.
func TestRoutingFollowsEncodedPath(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	g := ft.Graph()
	hosts := ft.Hosts()
	for _, src := range []topology.NodeID{hosts[0], hosts[2]} {
		for _, dst := range hosts {
			if src == dst {
				continue
			}
			ps := ft.PathSet(ft.ToROf(src), ft.ToROf(dst))
			for p := 0; p < ps.Len(); p++ {
				via, path := ps.Via(p), ps.AppendLinks(p, nil)
				sa, da, err := plan.PathAddresses(src, dst, ps, p)
				if err != nil {
					t.Fatalf("%s->%s via %s: %v", g.Node(src).Name, g.Node(dst).Name, via, err)
				}
				links, err := plan.Route(src, dst, sa, da)
				if err != nil {
					t.Fatalf("route %s->%s via %s (%v->%v): %v",
						g.Node(src).Name, g.Node(dst).Name, via, sa, da, err)
				}
				want := make([]topology.LinkID, 0, len(path)+2)
				want = append(want, ft.HostUplink(src))
				want = append(want, path...)
				want = append(want, ft.HostDownlink(dst))
				if len(links) != len(want) {
					t.Fatalf("route %s->%s via %s: got %d links, want %d",
						g.Node(src).Name, g.Node(dst).Name, via, len(links), len(want))
				}
				for i := range want {
					if links[i] != want[i] {
						t.Fatalf("route %s->%s via %s diverges at hop %d",
							g.Node(src).Name, g.Node(dst).Name, via, i)
					}
				}
			}
		}
	}
}

// TestRoutingOnClos checks the downhill-uphill scheme on a generic
// multi-rooted tree where picking the root alone does not determine the
// path (§2.3's motivation for keeping both tables).
func TestRoutingOnClos(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{DI: 4, DA: 4, HostsPerToR: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(cl)
	if err != nil {
		t.Fatal(err)
	}
	hosts := cl.Hosts()
	// Hosts in a Clos get one address per (intermediate, aggr) downward
	// path: DI * 2.
	if got := len(plan.AddressesOf(hosts[0])); got != 8 {
		t.Fatalf("clos host addresses = %d, want 8", got)
	}
	src := hosts[0]
	dst := hosts[len(hosts)-1]
	ps := cl.PathSet(cl.ToROf(src), cl.ToROf(dst))
	if ps.Len() != 16 {
		t.Fatalf("paths = %d, want 16", ps.Len())
	}
	for p := 0; p < ps.Len(); p++ {
		via, path := ps.Via(p), ps.AppendLinks(p, nil)
		sa, da, err := plan.PathAddresses(src, dst, ps, p)
		if err != nil {
			t.Fatalf("path %s: %v", via, err)
		}
		links, err := plan.Route(src, dst, sa, da)
		if err != nil {
			t.Fatalf("route via %s: %v", via, err)
		}
		if len(links) != len(path)+2 {
			t.Fatalf("route via %s: %d links, want %d", via, len(links), len(path)+2)
		}
		for i, l := range path {
			if links[i+1] != l {
				t.Fatalf("route via %s diverges at hop %d", via, i+1)
			}
		}
	}
}

func TestSameToRRouting(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	src, dst := ft.Hosts()[0], ft.Hosts()[1]
	if ft.ToROf(src) != ft.ToROf(dst) {
		t.Fatal("expected same-ToR host pair")
	}
	sa, da, err := plan.PathAddresses(src, dst, ft.PathSet(ft.ToROf(src), ft.ToROf(dst)), 0)
	if err != nil {
		t.Fatal(err)
	}
	links, err := plan.Route(src, dst, sa, da)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 {
		t.Errorf("same-ToR route has %d links, want 2 (up, down)", len(links))
	}
}

func TestRegistry(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	reg := NewRegistry(plan)
	if got := len(reg.HostNames()); got != 16 {
		t.Fatalf("registry has %d hosts, want 16", got)
	}
	h, addrs, err := reg.Resolve("E1")
	if err != nil {
		t.Fatal(err)
	}
	if ft.Graph().Node(h).Name != "E1" {
		t.Error("Resolve returned wrong host")
	}
	if len(addrs) != 4 {
		t.Errorf("E1 has %d addresses, want 4", len(addrs))
	}
	back, ok := reg.ReverseLookup(addrs[0])
	if !ok || back != h {
		t.Error("ReverseLookup failed")
	}
	if _, _, err := reg.Resolve("nosuch"); err == nil {
		t.Error("Resolve(nosuch) should fail")
	}
}

func TestPlanOnThreeTier(t *testing.T) {
	tt, err := topology.NewThreeTier(topology.ThreeTierConfig{NumPods: 2, AccessPerPod: 2, HostsPerAccess: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(tt)
	if err != nil {
		t.Fatal(err)
	}
	hosts := tt.Hosts()
	// 8 cores x 2 aggrs reachable per pod... every downward path from
	// each core through either pod aggr: 8 cores * 2 aggrs = 16.
	if got := len(plan.AddressesOf(hosts[0])); got != 16 {
		t.Fatalf("three-tier host addresses = %d, want 16", got)
	}
	src, dst := hosts[0], hosts[len(hosts)-1]
	ps := tt.PathSet(tt.ToROf(src), tt.ToROf(dst))
	for p := 0; p < 8; p++ {
		via := ps.Via(p)
		sa, da, err := plan.PathAddresses(src, dst, ps, p)
		if err != nil {
			t.Fatalf("path %s: %v", via, err)
		}
		if _, err := plan.Route(src, dst, sa, da); err != nil {
			t.Fatalf("route via %s: %v", via, err)
		}
	}
}

func TestTablesFormat(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	out := plan.TablesOf(ft.AggrsOfPod(0)[0]).Format(ft.Graph())
	for _, want := range []string{"downhill table:", "uphill table:", "10.4.0.0/14", "/26"} {
		if !contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func ExamplePlan_pathAddresses() {
	ft, _ := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	plan, _ := Build(ft)
	src, dst := ft.Hosts()[0], ft.Hosts()[8] // different pods
	ps := ft.PathSet(ft.ToROf(src), ft.ToROf(dst))
	sa, da, _ := plan.PathAddresses(src, dst, ps, 0)
	fmt.Println(ps.Via(0), sa, da)
	// Output: core1 (1,1,1,1) (1,3,1,1)
}
