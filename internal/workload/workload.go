// Package workload generates the paper's three traffic patterns (§4.1):
// random, staggered(ToRP, PodP), and stride(step), with Poisson flow
// arrivals and fixed-size elephant transfers (128 MB in the paper). All
// generation is seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dard/internal/topology"
)

// Layout captures which hosts share a ToR and a pod, the structure the
// staggered pattern needs. Host indices are positions in
// topology.Network.Hosts().
type Layout struct {
	// NumHosts is the total host count.
	NumHosts int
	// ToRByHost maps a host index to its ToR's ordinal.
	ToRByHost []int
	// PodByHost maps a host index to its pod.
	PodByHost []int
	// HostsByToR lists host indices per ToR ordinal.
	HostsByToR [][]int
	// HostsByPod lists host indices per pod.
	HostsByPod [][]int
}

// NewLayout derives the layout of a topology.
func NewLayout(net topology.Network) *Layout {
	g := net.Graph()
	hosts := net.Hosts()
	l := &Layout{
		NumHosts:  len(hosts),
		ToRByHost: make([]int, len(hosts)),
		PodByHost: make([]int, len(hosts)),
	}
	torOrdinal := make(map[topology.NodeID]int)
	podSeen := make(map[int]int)
	for i, h := range hosts {
		tor := net.ToROf(h)
		to, ok := torOrdinal[tor]
		if !ok {
			to = len(torOrdinal)
			torOrdinal[tor] = to
			l.HostsByToR = append(l.HostsByToR, nil)
		}
		l.ToRByHost[i] = to
		l.HostsByToR[to] = append(l.HostsByToR[to], i)

		pod := g.Node(h).Pod
		po, ok := podSeen[pod]
		if !ok {
			po = len(podSeen)
			podSeen[pod] = po
			l.HostsByPod = append(l.HostsByPod, nil)
		}
		l.PodByHost[i] = po
		l.HostsByPod[po] = append(l.HostsByPod[po], i)
	}
	return l
}

// HostsPerPod returns the size of the first pod, the stride step that
// guarantees cross-pod destinations in symmetric topologies.
func (l *Layout) HostsPerPod() int {
	if len(l.HostsByPod) == 0 {
		return 0
	}
	return len(l.HostsByPod[0])
}

// Pattern picks a destination host for each generated flow.
type Pattern interface {
	// Name identifies the pattern, e.g. "stride(4)".
	Name() string
	// PickDst returns a destination host index != src. It may draw from
	// rng through any method but Read, whose buffered bytes would carry
	// over from one host's stream to the next (OpenPoisson shares one
	// rand.Rand among its hosts).
	PickDst(rng *rand.Rand, src int) int
}

// Random sends to any other host with uniform probability.
type Random struct {
	L *Layout
}

// Name implements Pattern.
func (Random) Name() string { return "random" }

// PickDst implements Pattern.
func (p Random) PickDst(rng *rand.Rand, src int) int {
	d := rng.Intn(p.L.NumHosts - 1)
	if d >= src {
		d++
	}
	return d
}

// Staggered sends to a host under the same ToR with probability ToRP, to
// another host in the same pod with probability PodP, and to a host in a
// different pod otherwise. The paper uses ToRP=0.5, PodP=0.3.
type Staggered struct {
	L    *Layout
	ToRP float64
	PodP float64
}

// NewStaggered returns the paper's staggered(0.5, 0.3) pattern.
func NewStaggered(l *Layout) Staggered {
	return Staggered{L: l, ToRP: 0.5, PodP: 0.3}
}

// Name implements Pattern.
func (p Staggered) Name() string { return fmt.Sprintf("stag(%.1f,%.1f)", p.ToRP, p.PodP) }

// PickDst implements Pattern.
func (p Staggered) PickDst(rng *rand.Rand, src int) int {
	r := rng.Float64()
	tor := p.L.ToRByHost[src]
	pod := p.L.PodByHost[src]
	switch {
	case r < p.ToRP:
		if d, ok := pickOther(rng, p.L.HostsByToR[tor], src, nil); ok {
			return d
		}
	case r < p.ToRP+p.PodP:
		// Same pod, different ToR.
		if d, ok := pickOther(rng, p.L.HostsByPod[pod], src, func(h int) bool {
			return p.L.ToRByHost[h] != tor
		}); ok {
			return d
		}
	default:
		// Different pod.
		if d, ok := pickOtherGlobal(rng, p.L, func(h int) bool {
			return p.L.PodByHost[h] != pod
		}); ok {
			return d
		}
	}
	// Degenerate layouts (single pod, single-host ToRs) fall back to
	// uniform random.
	return Random{L: p.L}.PickDst(rng, src)
}

func pickOther(rng *rand.Rand, candidates []int, src int, keep func(int) bool) (int, bool) {
	eligible := make([]int, 0, len(candidates))
	for _, h := range candidates {
		if h != src && (keep == nil || keep(h)) {
			eligible = append(eligible, h)
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}

func pickOtherGlobal(rng *rand.Rand, l *Layout, keep func(int) bool) (int, bool) {
	// Count eligible pods first to avoid scanning all hosts.
	var pods []int
	for po := range l.HostsByPod {
		if len(l.HostsByPod[po]) > 0 && keep(l.HostsByPod[po][0]) {
			pods = append(pods, po)
		}
	}
	if len(pods) == 0 {
		return 0, false
	}
	pod := pods[rng.Intn(len(pods))]
	hosts := l.HostsByPod[pod]
	return hosts[rng.Intn(len(hosts))], true
}

// Stride sends from host x to host (x+Step) mod N, the all-inter-pod
// pattern when Step is a multiple of the pod size.
type Stride struct {
	N    int
	Step int
}

// Name implements Pattern.
func (p Stride) Name() string { return fmt.Sprintf("stride(%d)", p.Step) }

// PickDst implements Pattern.
func (p Stride) PickDst(_ *rand.Rand, src int) int {
	return (src + p.Step) % p.N
}

// Flow is one elephant transfer to run.
type Flow struct {
	// ID is a dense 0-based identifier in arrival order.
	ID int
	// Src and Dst are host indices.
	Src, Dst int
	// SizeBits is the transfer size in bits.
	SizeBits float64
	// Arrival is the flow start time in seconds.
	Arrival float64
}

// Check is the predicate every flow an engine takes from its Source
// passes, as arrival number n at clock now among hosts hosts: its ID
// is n, so IDs are dense and sequential; its endpoints are distinct
// hosts; its size is positive and finite; and it arrives at a finite
// time no earlier than now.
func (wf Flow) Check(n, hosts int, now float64) error {
	if wf.ID != n {
		return fmt.Errorf("flow ID %d arrives as number %d, want dense sequential IDs", wf.ID, n)
	}
	if wf.Src < 0 || wf.Src >= hosts || wf.Dst < 0 || wf.Dst >= hosts {
		return fmt.Errorf("flow %d references host out of range", wf.ID)
	}
	if wf.Src == wf.Dst {
		return fmt.Errorf("flow %d is a self-flow", wf.ID)
	}
	if !(wf.SizeBits > 0) || math.IsInf(wf.SizeBits, 0) {
		return fmt.Errorf("flow %d has invalid size %g", wf.ID, wf.SizeBits)
	}
	if math.IsNaN(wf.Arrival) || math.IsInf(wf.Arrival, 0) || wf.Arrival < now {
		return fmt.Errorf("flow %d arrives at invalid time %g (now %g)", wf.ID, wf.Arrival, now)
	}
	return nil
}

// Config parameterizes flow generation.
type Config struct {
	// Pattern picks destinations.
	Pattern Pattern
	// RatePerHost is the expected flow arrivals per second per host
	// (Poisson). The paper's simulations use exponential inter-arrivals
	// with a 0.2 s expectation, i.e. 5 flows/s.
	RatePerHost float64
	// Duration is the arrival window in seconds; flows arriving after it
	// are not generated. It must be finite; zero or negative leaves the
	// stream unbounded.
	Duration float64
	// SizeBytes is the transfer size; the paper uses 128 MB elephants.
	SizeBytes float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSizeBytes is the paper's 128 MB elephant transfer.
const DefaultSizeBytes = 128 << 20
