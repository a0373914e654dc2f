package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dard/internal/topology"
)

// TestPatternsAlwaysValidProperty: for arbitrary seeds and sources, every
// pattern returns an in-range destination different from the source.
func TestPatternsAlwaysValidProperty(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(ft)
	pats := []Pattern{
		Random{L: l},
		NewStaggered(l),
		Stride{N: l.NumHosts, Step: l.HostsPerPod()},
	}
	f := func(seed int64, srcRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := int(srcRaw) % l.NumHosts
		for _, p := range pats {
			d := p.PickDst(rng, src)
			if d == src || d < 0 || d >= l.NumHosts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestStrideAnyStepProperty: stride with any step that is not a multiple
// of N maps every host to a distinct destination (a permutation).
func TestStrideAnyStepProperty(t *testing.T) {
	f := func(nRaw, stepRaw uint8) bool {
		n := 2 + int(nRaw)%62
		step := 1 + int(stepRaw)%(n-1)
		p := Stride{N: n, Step: step}
		seen := make([]bool, n)
		for src := 0; src < n; src++ {
			d := p.PickDst(nil, src)
			if d < 0 || d >= n || d == src || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestGenerateArrivalSpacingProperty: inter-arrival times per host are
// positive and flows stay within the window for arbitrary rates.
func TestGenerateArrivalSpacingProperty(t *testing.T) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(ft)
	f := func(seed int64, rateRaw uint8) bool {
		rate := 0.1 + float64(rateRaw%40)/10
		flows, err := drained(l, Config{
			Pattern: Random{L: l}, RatePerHost: rate, Duration: 5, Seed: seed,
		})
		if err != nil {
			return false
		}
		lastPerSrc := make(map[int]float64)
		for _, fl := range flows {
			if fl.Arrival < 0 || fl.Arrival >= 5 {
				return false
			}
			if prev, ok := lastPerSrc[fl.Src]; ok && fl.Arrival < prev {
				return false // per-host arrivals must be ordered
			}
			lastPerSrc[fl.Src] = fl.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
