package topology

import (
	"slices"
	"sync"
)

// sourceRouted is the explicit path-set PathProvider the non-tree
// families (dragonfly, DCell) share. A tree resolves any path from a
// handful of uplink index-table entries, but a dragonfly rail detour or
// a DCell proxy route has no up/down decomposition to index, so these
// families enumerate each pair's paths once — deterministically, from
// the family's build function — and serve every PathSet handle for the
// pair from that entry. This enumeration is the family's only one:
// there is no second, materialized path list to check it against, so
// pathprops_test.go checks it by property. Entries build lazily under
// single-flight, so a pair the workload never touches costs nothing and
// concurrent callers agree on one enumeration (pinned by
// TestPathCacheSingleFlight and TestPathCacheConcurrent).
//
// PathIdx stability holds because build is a pure function of the
// constructed graph: two independent constructions of the same
// configuration produce the same node and link IDs and therefore the
// same enumeration, bit for bit (pinned by pathprops_test.go).
type sourceRouted struct {
	// g resolves path links to the switches they leave.
	g *Graph
	// build enumerates the paths of one ordered pair of distinct
	// attachment switches: the link sequences and their Via labels, in
	// the family's pinned order.
	build func(src, dst NodeID) ([][]LinkID, []string)

	mu      sync.Mutex
	entries map[[2]NodeID]*srcEntry
}

// srcEntry is one pair's materialized path set. It implements
// PathProvider directly so a PathSet handle resolves links with a plain
// slice access — no lock, no map lookup, no allocation.
type srcEntry struct {
	once  sync.Once
	links [][]LinkID
	vias  []string
	// switches is the sorted upstream endpoint of every path link, and
	// ports sums their exit ports.
	switches []NodeID
	ports    int
}

func newSourceRouted(g *Graph, build func(src, dst NodeID) ([][]LinkID, []string)) *sourceRouted {
	return &sourceRouted{g: g, build: build, entries: make(map[[2]NodeID]*srcEntry)}
}

// pathSet returns the pair's PathSet handle, building the pair's entry
// on first use. The same-switch pair is the usual single empty path and
// never builds an entry.
func (sr *sourceRouted) pathSet(src, dst NodeID) PathSet {
	if src == dst {
		return PathSet{src: src, dst: dst, n: 1}
	}
	e := sr.entry(src, dst)
	return PathSet{r: e, src: src, dst: dst, n: int32(len(e.links))}
}

// entry returns the pair's built entry, creating it single-flight: the
// build runs exactly once per pair no matter how many goroutines race
// on a cold entry.
func (sr *sourceRouted) entry(src, dst NodeID) *srcEntry {
	key := [2]NodeID{src, dst}
	sr.mu.Lock()
	e, ok := sr.entries[key]
	if !ok {
		e = &srcEntry{}
		sr.entries[key] = e
	}
	sr.mu.Unlock()
	e.once.Do(func() {
		e.links, e.vias = sr.build(src, dst)
		for _, path := range e.links {
			for _, l := range path {
				e.switches = append(e.switches, sr.g.Link(l).From)
			}
		}
		slices.Sort(e.switches)
		e.switches = slices.Compact(e.switches)
		for _, sw := range e.switches {
			e.ports += len(sr.g.Out(sw))
		}
	})
	return e
}

// appendPathLinks implements PathProvider.
func (e *srcEntry) appendPathLinks(_, _ NodeID, i int, buf []LinkID) []LinkID {
	return append(buf, e.links[i]...)
}

// pathVia implements PathProvider.
func (e *srcEntry) pathVia(_, _ NodeID, i int) string { return e.vias[i] }

// appendSwitches implements PathProvider from the entry's sorted set.
func (e *srcEntry) appendSwitches(_, _ NodeID, buf []NodeID) []NodeID {
	return append(buf, e.switches...)
}

// switchPorts implements PathProvider from the counts the entry's build
// took.
func (e *srcEntry) switchPorts(_, _ NodeID) (switches, ports int) {
	return len(e.switches), e.ports
}
