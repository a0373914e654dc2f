package topology

import "slices"

// upDown is the PathProvider the tree families (fat-tree, Clos,
// three-tier) embed. In a multi-rooted tree a path is fixed by its
// uphill and downhill branch choice (§2.3): a ToR goes up to one aggr
// of its pod, the aggr up to one of its top switches, and the top
// switch down through one aggr of the destination pod that reaches it.
// So every path resolves from two uplink tables, and downlinks are the
// graph's Reverse of the same entries; nothing is stored per pair.
//
// Path i between ToRs of one pod goes via aggr i of the pod. Between
// pods it is the branch triple (uphill aggr j, top switch m, downhill
// aggr k) with i = j·fan·width + m·width + k. The fat-tree is the
// grouped case: aggr j of every pod reaches only core group j, the
// cores j·fan … j·fan+fan−1, so a path must come down through aggr j
// too, k = j, and path i is core i.
type upDown struct {
	*base
	// width is the number of aggrs in a pod, and so of a ToR's uplinks;
	// fan is the number of top switches an aggr reaches.
	width, fan int
	grouped    bool
	// tops are the top switches (cores, Clos intermediates), aggrs the
	// aggregation switches pod-major (aggrs[pod*width+j] is aggr j of the
	// pod), tors the ToRs by tier index. All three ascend in ID, and
	// every top switch comes before every aggr.
	tops, aggrs, tors []NodeID
	// torUp[t*width+j] is ToR t -> aggr j of its pod; aggrUp[a*fan+m] is
	// aggrs[a] -> its m-th top switch, top(a%width, m).
	torUp, aggrUp []LinkID
}

// newUpDown builds the uplink tables of a tree whose graph b holds.
// Every ToR links to each aggr of its pod and every aggr to each of
// its top switches.
func newUpDown(b *base, tops, aggrs, tors []NodeID, grouped bool) upDown {
	g := b.g
	width := 0
	for _, a := range aggrs {
		if g.node(a).Pod == g.node(aggrs[0]).Pod {
			width++
		}
	}
	fan := len(tops)
	if grouped {
		fan /= width
	}
	u := upDown{
		base: b, width: width, fan: fan, grouped: grouped,
		tops: tops, aggrs: aggrs, tors: tors,
		torUp:  make([]LinkID, 0, len(tors)*width),
		aggrUp: make([]LinkID, 0, len(aggrs)*fan),
	}
	for _, tor := range tors {
		for _, aggr := range u.podAggrs(g.node(tor).Pod) {
			u.torUp = append(u.torUp, mustLink(g, tor, aggr))
		}
	}
	for a, aggr := range aggrs {
		for m := 0; m < fan; m++ {
			u.aggrUp = append(u.aggrUp, mustLink(g, aggr, u.top(a%width, m)))
		}
	}
	return u
}

// podAggrs returns the aggrs of a pod, capped so an append cannot
// write into the next pod's.
func (u *upDown) podAggrs(pod int) []NodeID {
	lo, hi := pod*u.width, (pod+1)*u.width
	return u.aggrs[lo:hi:hi]
}

// top returns the m-th top switch aggr j of a pod reaches.
func (u *upDown) top(j, m int) NodeID {
	if u.grouped {
		return u.tops[j*u.fan+m]
	}
	return u.tops[m]
}

// branch decodes inter-pod path i into its uphill aggr j, top switch m
// and downhill aggr k.
func (u *upDown) branch(i int) (j, m, k int) {
	if u.grouped {
		return i / u.fan, i % u.fan, i / u.fan
	}
	return i / (u.fan * u.width), i / u.width % u.fan, i % u.width
}

// NumPaths reports the equal-cost path count between two ToRs: one
// between a ToR and itself, one per aggr within a pod, and one per
// branch triple across pods.
func (u *upDown) NumPaths(srcToR, dstToR NodeID) int {
	switch {
	case srcToR == dstToR:
		return 1
	case u.g.node(srcToR).Pod == u.g.node(dstToR).Pod:
		return u.width
	case u.grouped:
		return u.width * u.fan
	default:
		return u.width * u.fan * u.width
	}
}

// PathSet implements Network.
func (u *upDown) PathSet(srcToR, dstToR NodeID) PathSet {
	return PathSet{r: u, src: srcToR, dst: dstToR, n: int32(u.NumPaths(srcToR, dstToR))}
}

// appendPathLinks implements PathProvider.
func (u *upDown) appendPathLinks(src, dst NodeID, i int, buf []LinkID) []LinkID {
	g := u.g
	sn, dn := g.node(src), g.node(dst)
	w := u.width
	if sn.Pod == dn.Pod {
		return append(buf, u.torUp[sn.Index*w+i], g.Reverse(u.torUp[dn.Index*w+i]))
	}
	j, m, k := u.branch(i)
	return append(buf,
		u.torUp[sn.Index*w+j],
		u.aggrUp[(sn.Pod*w+j)*u.fan+m],
		g.Reverse(u.aggrUp[(dn.Pod*w+k)*u.fan+m]),
		g.Reverse(u.torUp[dn.Index*w+k]))
}

// appendSwitches implements PathProvider: the source ToR and its pod's
// aggrs, plus every top switch and the destination pod's aggrs across
// pods. The tops and the two pods' aggr blocks already ascend in ID;
// the source ToR goes in at its place among the aggrs, since the
// families number a pod's ToRs after its aggrs but differ on where the
// other pod's aggrs fall.
func (u *upDown) appendSwitches(src, dst NodeID, buf []NodeID) []NodeID {
	sp, dp := u.g.node(src).Pod, u.g.node(dst).Pod
	if sp != dp {
		buf = append(buf, u.tops...)
	}
	start := len(buf)
	buf = append(buf, u.podAggrs(min(sp, dp))...)
	if sp != dp {
		buf = append(buf, u.podAggrs(max(sp, dp))...)
	}
	at, _ := slices.BinarySearch(buf[start:], src)
	return slices.Insert(buf, start+at, src)
}

// pathVia implements PathProvider. Intra-pod paths are labeled by their
// aggr and fat-tree paths by their core, both stored names; the other
// inter-pod labels "aggrU>top>aggrD" are joined on demand, only for
// traces and display.
func (u *upDown) pathVia(src, dst NodeID, i int) string {
	g := u.g
	sn, dn := g.node(src), g.node(dst)
	w := u.width
	if sn.Pod == dn.Pod {
		return g.node(u.aggrs[sn.Pod*w+i]).Name
	}
	j, m, k := u.branch(i)
	top := g.node(u.top(j, m)).Name
	if u.grouped {
		return top
	}
	return joinVia(g.node(u.aggrs[sn.Pod*w+j]).Name, top, g.node(u.aggrs[dn.Pod*w+k]).Name)
}
