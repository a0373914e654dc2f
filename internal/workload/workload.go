// Package workload generates the paper's three traffic patterns (§4.1):
// random, staggered(ToRP, PodP), and stride(step), with Poisson flow
// arrivals and fixed-size elephant transfers (128 MB in the paper). All
// generation is seeded and deterministic.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"dard/internal/detrand"
	"dard/internal/fpcmp"
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
	// over from one host's stream to the next (Generate reuses one
	// rand.Rand for every host).
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

// Config parameterizes flow generation.
type Config struct {
	// Pattern picks destinations.
	Pattern Pattern
	// RatePerHost is the expected flow arrivals per second per host
	// (Poisson). The paper's simulations use exponential inter-arrivals
	// with a 0.2 s expectation, i.e. 5 flows/s.
	RatePerHost float64
	// Duration is the arrival window in seconds; flows arriving after it
	// are not generated.
	Duration float64
	// SizeBytes is the transfer size; the paper uses 128 MB elephants.
	SizeBytes float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultSizeBytes is the paper's 128 MB elephant transfer.
const DefaultSizeBytes = 128 << 20

// Generate produces the flow arrivals for every host, merged and sorted by
// arrival time.
func Generate(l *Layout, cfg Config) ([]Flow, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: nil pattern")
	}
	if cfg.RatePerHost <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("workload: rate %g and duration %g must be positive", cfg.RatePerHost, cfg.Duration)
	}
	// A NaN or infinite rate or window never ends the arrival loop below.
	if math.IsNaN(cfg.RatePerHost) || math.IsInf(cfg.RatePerHost, 0) || math.IsNaN(cfg.Duration) || math.IsInf(cfg.Duration, 0) {
		return nil, fmt.Errorf("workload: rate %g and duration %g must be finite", cfg.RatePerHost, cfg.Duration)
	}
	if fpcmp.IsZero(cfg.SizeBytes) {
		cfg.SizeBytes = DefaultSizeBytes
	}
	if l.NumHosts < 2 {
		return nil, fmt.Errorf("workload: need at least 2 hosts, have %d", l.NumHosts)
	}
	var flows []Flow
	// Every host draws its own substream, so adding hosts does not
	// perturb others. One lazily seeded source serves them all in turn:
	// reseeding costs O(1) and rand.Rand holds no state of its own for
	// the draws below, so each host's stream is exactly that of a fresh
	// rand.NewSource(cfg.Seed + host*7919).
	seeded := detrand.NewStd(cfg.Seed)
	rng := rand.New(seeded)
	for src := 0; src < l.NumHosts; src++ {
		seeded.Seed(cfg.Seed + int64(src)*7919)
		t := 0.0
		for {
			t += rng.ExpFloat64() / cfg.RatePerHost
			if t >= cfg.Duration {
				break
			}
			dst := cfg.Pattern.PickDst(rng, src)
			if dst == src {
				continue // self-flows are meaningless
			}
			flows = append(flows, Flow{
				Src:      src,
				Dst:      dst,
				SizeBits: cfg.SizeBytes * 8,
				Arrival:  t,
			})
		}
	}
	slices.SortStableFunc(flows, func(a, b Flow) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for i := range flows {
		flows[i].ID = i
	}
	return flows, nil
}
