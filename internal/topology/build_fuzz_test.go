package topology

import (
	"errors"
	"testing"
)

// FuzzTopologyBuild drives every family's constructor with arbitrary
// parameters. The contract under fuzz is the ErrConfig discipline:
// hostile parameters must come back as typed configuration errors —
// never a panic, never an unwrapped error — and any accepted topology
// must validate and honor the cross-family path-property contract on a
// sample of pairs. Raw inputs are folded into a hostile-but-bounded
// range so rejection paths (negative, zero, odd, over-cap) all stay
// reachable while accepted builds remain small enough to check.
func FuzzTopologyBuild(f *testing.F) {
	f.Add(uint8(0), int16(6), int16(0), int16(0))    // fat-tree p=6
	f.Add(uint8(0), int16(-3), int16(7), int16(0))   // fat-tree, hostile
	f.Add(uint8(1), int16(4), int16(4), int16(2))    // clos
	f.Add(uint8(1), int16(0), int16(5), int16(-1))   // clos, hostile
	f.Add(uint8(2), int16(4), int16(3), int16(2))    // three-tier
	f.Add(uint8(2), int16(-1), int16(300), int16(0)) // three-tier, hostile
	f.Add(uint8(3), int16(2), int16(2), int16(1))    // dragonfly
	f.Add(uint8(3), int16(0), int16(-5), int16(9))   // dragonfly, hostile
	f.Add(uint8(4), int16(3), int16(1), int16(0))    // dcell
	f.Add(uint8(4), int16(40), int16(3), int16(0))   // dcell, over the server cap
	f.Fuzz(func(t *testing.T, family uint8, a, b, c int16) {
		// Fold params toward small magnitudes; signs and zeros survive, so
		// every validation branch stays reachable without letting an
		// accepted build exceed a few thousand nodes.
		pa, pb, pc := int(a%40), int(b%40), int(c%8)
		var (
			net Network
			err error
		)
		switch family % 5 {
		case 0:
			net, err = NewFatTree(FatTreeConfig{P: pa, HostsPerToR: pc})
		case 1:
			net, err = NewClos(ClosConfig{DI: pa, DA: pb, HostsPerToR: pc})
		case 2:
			net, err = NewThreeTier(ThreeTierConfig{
				NumCores: pa, NumPods: pb, AccessPerPod: pc, HostsPerAccess: 2})
		case 3:
			net, err = NewDragonfly(DragonflyConfig{D: pa, A: pb, P: pc})
		case 4:
			net, err = NewDCell(DCellConfig{N: pa, Level: pc})
		}
		if err != nil {
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("rejection is not an ErrConfig: %v", err)
			}
			return
		}
		if err := net.Graph().Validate(); err != nil {
			t.Fatalf("accepted topology fails validation: %v", err)
		}
		checkSizedExactly(t, net)
		if len(net.Hosts()) == 0 {
			// HostsPerToR=0 edge scaling is legal on the tree families; the
			// path contract is about attachment switches, which need hosts.
			return
		}
		for _, pair := range samplePairs(net, 48) {
			checkPairPaths(t, net, pair[0], pair[1])
		}
	})
}

// checkSizedExactly requires the family's up-front size of its node,
// link and host tables to be exactly what it built: a short count
// regrows a table, a long one wastes it.
func checkSizedExactly(t *testing.T, net Network) {
	t.Helper()
	g := net.Graph()
	for _, c := range []struct {
		name     string
		len, cap int
	}{
		{"nodes", len(g.nodes), cap(g.nodes)},
		{"adjacency", len(g.out), cap(g.out)},
		{"links", len(g.links), cap(g.links)},
		{"reverse", len(g.reverse), cap(g.reverse)},
		{"hosts", len(net.Hosts()), cap(net.Hosts())},
	} {
		if c.len != c.cap {
			t.Errorf("%s: %s table holds %d of the %d entries it was sized for", net.Name(), c.name, c.len, c.cap)
		}
	}
}
