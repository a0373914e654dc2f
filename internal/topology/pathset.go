package topology

// PathSet is an implicit, zero-storage view of the equal-cost paths
// between one ToR pair. Nothing is materialized per pair: a PathSet is a
// small value (resolver + endpoints + count) and resolving any member
// path is a handful of index-table lookups inside the topology. This is
// the structural fact the paper's hierarchical addressing rests on — a
// multi-rooted-tree path is fully determined by its (pair, branch
// choice), so the O(p^4)-byte materialized path cache the simulators
// used to warm is unnecessary.
//
// PathSet is the only path representation the Network interface
// offers. Path order and Via labels are pinned exactly: flow state
// stores (pair, PathIdx) across snapshots and reports compare
// byte-identically, so any reordering or relabeling would be a silent
// behavior change. Two test-only oracles check the tree families over
// every ToR pair: a breadth-first search requires each set to be
// exactly the pair's shortest switch-link walks (shortest_test.go),
// and a graph walk per family (buildPaths) pins their order and labels
// (pathset_test.go).
type PathSet struct {
	r        PathProvider
	src, dst NodeID
	n        int32
}

// PathProvider is the per-topology backend of PathSet handles: the
// family-specific resolution of (pair, path index) to links and label.
// src and dst are distinct attachment switches of the same Network; i
// is in [0, numPaths).
//
// Two implementations exist. The tree families (fat-tree, Clos,
// three-tier) embed one, upDown, which decodes a path index into its
// uphill and downhill branch choice and resolves it with O(1) uplink
// table lookups — the structural fact NIRA-style up/down addressing
// rests on, where a path is fully determined by its branch choice. The
// non-tree families (dragonfly, DCell) have no up/down hierarchy to
// index, so they delegate to sourceRouted: an explicit per-pair
// source-routed path list, built deterministically on first use and
// shared by every handle for the pair.
//
// Both styles honor one contract, pinned by pathprops_test.go across
// every family: paths are loop-free link-contiguous src->dst walks over
// switch-switch links, sets are duplicate-free with unique Via labels,
// a set's switches are exactly its path links' upstream endpoints in
// ascending ID order, and enumeration order is
// construction-deterministic — PathIdx is durable state in flows,
// reports, and checkpoints, so two independent constructions of the
// same configuration must enumerate bit-identically.
type PathProvider interface {
	// appendPathLinks appends path i's switch-switch links to buf.
	appendPathLinks(src, dst NodeID, i int, buf []LinkID) []LinkID
	// pathVia returns path i's trace label.
	pathVia(src, dst NodeID, i int) string
	// appendSwitches appends the upstream endpoint of every link of
	// every path to buf, each switch once, in ascending ID order.
	appendSwitches(src, dst NodeID, buf []NodeID) []NodeID
}

// Len reports the number of equal-cost paths in the set. A same-ToR pair
// has exactly one (empty) path.
func (ps PathSet) Len() int { return int(ps.n) }

// AppendLinks appends the switch-switch links of path i, source ToR
// first, to buf and returns the extended slice. It allocates nothing
// when buf has capacity; i must be in [0, Len()). The direct same-ToR
// path appends nothing.
func (ps PathSet) AppendLinks(i int, buf []LinkID) []LinkID {
	if i < 0 || i >= int(ps.n) {
		panic("topology: PathSet index out of range")
	}
	if ps.src == ps.dst {
		return buf
	}
	return ps.r.appendPathLinks(ps.src, ps.dst, i, buf)
}

// AppendSwitches appends the switches the set's paths leave from — the
// upstream endpoint of every path link, each once, sorted by ID — to buf
// and returns the extended slice. These are the switches whose exit
// ports carry the set's traffic, the ones a DARD monitor polls
// (§2.4.2). The direct same-ToR path appends nothing.
func (ps PathSet) AppendSwitches(buf []NodeID) []NodeID {
	if ps.src == ps.dst {
		return buf
	}
	return ps.r.appendSwitches(ps.src, ps.dst, buf)
}

// Via returns the label of path i — the branch choice that determines
// it, e.g. "core3" in a fat-tree. Labels are built on demand (they may
// allocate) and are only for traces and display; simulation state never
// depends on them.
func (ps PathSet) Via(i int) string {
	if i < 0 || i >= int(ps.n) {
		panic("topology: PathSet index out of range")
	}
	if ps.src == ps.dst {
		return "direct"
	}
	return ps.r.pathVia(ps.src, ps.dst, i)
}
