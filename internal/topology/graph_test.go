package topology

import "testing"

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(ToR, "tor1", 0, 0)
	b := g.AddNode(Aggr, "aggr1", 0, 0)
	h := g.AddNode(Host, "E1", 0, 0)
	ab := g.AddDuplex(a, b, 1e9, 1e-4)
	ha := g.AddDuplex(h, a, 1e9, 1e-4)

	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumLinks() != 4 {
		t.Fatalf("NumLinks = %d, want 4 (two duplex pairs)", g.NumLinks())
	}
	if got := g.Link(ab); got.From != a || got.To != b {
		t.Errorf("link ab endpoints = %v -> %v, want %v -> %v", got.From, got.To, a, b)
	}
	rev := g.Link(g.Reverse(ab))
	if rev.From != b || rev.To != a {
		t.Errorf("reverse(ab) = %v -> %v, want %v -> %v", rev.From, rev.To, b, a)
	}
	if g.Reverse(g.Reverse(ab)) != ab {
		t.Error("reverse is not an involution")
	}
	if id, ok := g.LinkBetween(b, a); !ok || id != g.Reverse(ab) {
		t.Errorf("LinkBetween(b,a) = %v,%v", id, ok)
	}
	if _, ok := g.LinkBetween(h, b); ok {
		t.Error("LinkBetween(h,b) should not exist")
	}
	if !g.IsSwitchLink(ab) {
		t.Error("tor-aggr link should be a switch link")
	}
	if g.IsSwitchLink(ha) {
		t.Error("host-tor link should not be a switch link")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if out, in := g.Out(a), g.In(a); len(out) != 2 || len(in) != 2 || out[0] != ab || in[1] != ha {
		t.Errorf("Out(a) = %v, In(a) = %v; want [%v ...] and [... %v]", out, in, ab, ha)
	}
	// An ID outside the graph has no links, and asking does not panic.
	lone := g.AddNode(Core, "core1", -1, 0)
	for _, n := range []NodeID{lone, NodeID(g.NumNodes()), 1 << 20, -1} {
		if out, in := g.Out(n), g.In(n); out != nil || in != nil {
			t.Errorf("node %d: Out = %v, In = %v, want nil", n, out, in)
		}
	}
}

func TestGraphValidateRejectsBadHost(t *testing.T) {
	g := NewGraph()
	h := g.AddNode(Host, "E1", 0, 0)
	a := g.AddNode(Aggr, "aggr1", 0, 0)
	g.AddDuplex(h, a, 1e9, 1e-4)
	if err := g.Validate(); err == nil {
		t.Error("Validate should reject a host attached to a non-ToR")
	}

	g2 := NewGraph()
	g2.AddNode(Host, "E1", 0, 0)
	if err := g2.Validate(); err == nil {
		t.Error("Validate should reject an unattached host")
	}
}

func TestNodesOfKindAndFind(t *testing.T) {
	ft, err := NewFatTree(FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	g := ft.Graph()
	if got := len(g.NodesOfKind(Core)); got != 4 {
		t.Errorf("cores = %d, want 4", got)
	}
	if got := len(g.NodesOfKind(Aggr)); got != 8 {
		t.Errorf("aggrs = %d, want 8", got)
	}
	n, ok := g.FindNode("core1")
	if !ok || n.Kind != Core {
		t.Errorf("FindNode(core1) = %+v, %v", n, ok)
	}
	if _, ok := g.FindNode("nosuch"); ok {
		t.Error("FindNode(nosuch) should fail")
	}
}

func TestNeighborsOrder(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Aggr, "a", 0, 0)
	b := g.AddNode(Core, "b", -1, 0)
	c := g.AddNode(Core, "c", -1, 1)
	g.AddDuplex(a, b, 1e9, 1e-4)
	g.AddDuplex(a, c, 1e9, 1e-4)
	nb := g.Neighbors(a)
	if len(nb) != 2 || nb[0] != b || nb[1] != c {
		t.Errorf("Neighbors = %v, want [%v %v] in creation order", nb, b, c)
	}
}
