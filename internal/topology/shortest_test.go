package topology

import (
	"slices"
	"testing"
)

// hopsTo returns every node's hop count to dst over switch-switch links,
// -1 where dst is out of reach. Hosts are never crossed: DARD routes
// only between the switches hosts attach to. Every family's cables are
// duplex, so a breadth-first search out of dst measures the distance
// into it.
func hopsTo(g *Graph, dst NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, l := range g.Out(n) {
			if to := g.Link(l).To; g.IsSwitchLink(l) && dist[to] < 0 {
				dist[to] = dist[n] + 1
				queue = append(queue, to)
			}
		}
	}
	return dist
}

// shortestWalks enumerates every shortest switch-link walk from src to
// the node whose hopsTo table is dist: each step takes a switch link
// that brings the walk one hop closer. The same-switch pair has the one
// empty walk; an unreachable pair has none.
func shortestWalks(g *Graph, dist []int, src NodeID) [][]LinkID {
	if dist[src] < 0 {
		return nil
	}
	var walks [][]LinkID
	walk := make([]LinkID, 0, dist[src])
	var extend func(n NodeID)
	extend = func(n NodeID) {
		if dist[n] == 0 {
			walks = append(walks, slices.Clone(walk))
			return
		}
		for _, l := range g.Out(n) {
			if to := g.Link(l).To; g.IsSwitchLink(l) && dist[to] == dist[n]-1 {
				walk = append(walk, l)
				extend(to)
				walk = walk[:len(walk)-1]
			}
		}
	}
	extend(src)
	return walks
}

// TestPathSetMatchesShortestWalks is the shortest-path oracle for the
// tree families: for every ordered ToR pair, the path set holds exactly
// the pair's shortest switch-link walks, each once, as a breadth-first
// search over the graph finds them. It pins membership, not order;
// TestPathSetMatchesBuildPaths pins order and labels.
func TestPathSetMatchesShortestWalks(t *testing.T) {
	for _, net := range treeNetworks(t) {
		t.Run(net.Name(), func(t *testing.T) {
			g := net.Graph()
			tors := AttachSwitches(net)
			for _, b := range tors {
				dist := hopsTo(g, b)
				for _, a := range tors {
					want := shortestWalks(g, dist, a)
					ps := net.PathSet(a, b)
					got := make([][]LinkID, ps.Len())
					for i := range got {
						got[i] = ps.AppendLinks(i, nil)
					}
					slices.SortFunc(want, slices.Compare)
					slices.SortFunc(got, slices.Compare)
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Fatalf("pair (%s,%s): path set %v, shortest walks %v",
							g.Node(a).Name, g.Node(b).Name, got, want)
					}
				}
			}
		})
	}
}

// TestShortestPathReport measures the source-routed families against
// the same breadth-first oracle without gating them: their path order
// is PathIdx semantics, and DCell's recursive route is often not a
// shortest path (Erickson et al., "Routing Algorithms for
// Recursively-Defined Data Centre Networks"). Per size it logs how many
// ordered pairs of distinct attachment switches have no shortest walk
// in their set and how many have every one, and the stretch of path 0:
// its length over the shortest. It fails only if a set holds a walk
// shorter than the search finds, which would mean the oracle is wrong.
// EXPERIMENTS.md records the output of
//
//	go test ./internal/topology -run TestShortestPathReport -v
func TestShortestPathReport(t *testing.T) {
	for _, c := range []interface{ Build() (Network, error) }{
		DragonflyConfig{D: 4, A: 3, P: 2},
		DCellConfig{N: 3, Level: 1},
		DCellConfig{N: 2, Level: 2},
		DCellConfig{N: 4, Level: 2},
	} {
		net, err := c.Build()
		if err != nil {
			t.Fatalf("%T: %v", c, err)
		}
		// Build each pair's paths without keeping them: DCell n=4 at
		// level 2 has 175,980 pairs.
		var build func(src, dst NodeID) ([][]LinkID, []string)
		switch n := net.(type) {
		case *Dragonfly:
			build = n.sr.build
		case *DCell:
			build = n.sr.build
		}
		g := net.Graph()
		sw := AttachSwitches(net)
		var pairs, noShortest, allShortest int
		var stretch []float64
		sum := 0.0
		for _, b := range sw {
			dist := hopsTo(g, b)
			for _, a := range sw {
				if a == b {
					continue
				}
				paths, _ := build(a, b)
				shortest := 0
				for i, p := range paths {
					if len(p) < dist[a] {
						t.Fatalf("%s pair (%s,%s) path %d: %d links, shorter than the %d of a shortest walk",
							net.Name(), g.Node(a).Name, g.Node(b).Name, i, len(p), dist[a])
					}
					if len(p) == dist[a] {
						shortest++
					}
				}
				pairs++
				switch {
				case shortest == 0:
					noShortest++
				case shortest == len(shortestWalks(g, dist, a)):
					allShortest++
				}
				s := float64(len(paths[0])) / float64(dist[a])
				stretch = append(stretch, s)
				sum += s
			}
		}
		slices.Sort(stretch)
		q := func(f float64) float64 { return stretch[int(f*float64(len(stretch)-1))] }
		t.Logf("%s: %d pairs, %d with no shortest path in their set, %d with every shortest path; "+
			"path-0 stretch mean %.2f, median %.2f, p90 %.2f, p99 %.2f, max %.2f",
			net.Name(), pairs, noShortest, allShortest, sum/float64(pairs), q(0.5), q(0.9), q(0.99), q(1))
	}
}
