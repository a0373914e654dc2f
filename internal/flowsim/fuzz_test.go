package flowsim

import (
	"math/rand"
	"testing"

	"dard/internal/topology"
)

// fuzzFlipController is the fuzz harness's controller: batched random
// path switches (multi-component dirt from membership changes) plus one
// timer that fails several fabric links in a single event and another
// that repairs them (multi-component dirt from capacity changes). Every
// random choice comes from the simulation's seeded RNG, so the
// incremental and reference runs of one fuzz input see identical
// decisions.
type fuzzFlipController struct {
	batchController
	flips []topology.LinkID
	at    float64
}

func (c *fuzzFlipController) Start(s *Sim) {
	c.batchController.Start(s)
	if len(c.flips) > 0 {
		s.After(c.at, func() {
			for _, l := range c.flips {
				s.SetLinkDown(l, true)
			}
		})
		s.After(c.at+0.9, func() {
			for _, l := range c.flips {
				s.SetLinkDown(l, false)
			}
		})
	}
}

// FuzzComponentRecompute feeds random sharing graphs — random flows
// over random paths with random batched re-routes and random multi-link
// failure events — through the incremental engine and the retained
// reference scheduler and requires exact agreement. Any partition,
// install-order, or fill divergence surfaces as a Float64bits mismatch
// in the results diff.
func FuzzComponentRecompute(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(4), uint8(3))
	f.Add(int64(7), uint8(60), uint8(8), uint8(0))
	f.Add(int64(42), uint8(2), uint8(1), uint8(6))
	f.Add(int64(-3), uint8(80), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nFlows, batch, failLinks uint8) {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
		if err != nil {
			t.Fatal(err)
		}
		fuzzAgainstReference(t, ft, seed, nFlows, batch, failLinks, 1.5e9)
	})
}

// fuzzCapacities is the set FuzzMixedCapacityRecompute draws each
// tier's link bandwidth from.
var fuzzCapacities = [...]float64{1e8, 4e8, 1e9, 2.5e9, 1e10}

// FuzzMixedCapacityRecompute is FuzzComponentRecompute on a small
// three-tier tree whose host links, access uplinks and aggregation
// uplinks each draw a capacity from fuzzCapacities. The fat-tree target
// gives every link one capacity, so a flow's single-flow links there
// differ only by LinkID; here they differ by capacity too, which is what
// decides the one single-flow link per flow the bottleneck heap holds.
func FuzzMixedCapacityRecompute(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(4), uint8(2), uint8(7), uint8(0))
	f.Add(int64(5), uint8(60), uint8(8), uint8(0), uint8(31), uint8(13))
	f.Add(int64(42), uint8(3), uint8(1), uint8(4), uint8(100), uint8(6))
	f.Add(int64(-9), uint8(80), uint8(3), uint8(1), uint8(62), uint8(15))
	f.Fuzz(func(t *testing.T, seed int64, nFlows, batch, failLinks, caps, shape uint8) {
		n := len(fuzzCapacities)
		c := int(caps) % (n * n * n)
		tt, err := topology.NewThreeTier(topology.ThreeTierConfig{
			NumCores:       1 + int(shape)%4,    // [1, 4]
			NumPods:        2 + int(shape>>2)%2, // [2, 3]
			AccessPerPod:   2,
			HostsPerAccess: 2 + int(shape>>3)%2, // [2, 3]
			HostCapacity:   fuzzCapacities[c%n],
			AccessUplink:   fuzzCapacities[c/n%n],
			AggrUplink:     fuzzCapacities[c/(n*n)],
		})
		if err != nil {
			t.Fatal(err)
		}
		fuzzAgainstReference(t, tt, seed, nFlows, batch, failLinks, 1.5*fuzzCapacities[c%n])
	})
}

// fuzzAgainstReference runs one fuzz input on net through both
// schedulers and diffs the results: 2..80 random flows of up to maxSize
// bits, batched random re-routes, and a timer that fails some aggr->core
// duplex links in one event and repairs them in another.
func fuzzAgainstReference(t *testing.T, net topology.Network, seed int64, nFlows, batch, failLinks uint8, maxSize float64) {
	g := net.Graph()
	fabric := fabricLinks(g)

	n := 2 + int(nFlows)%79 // [2, 80]
	b := 1 + int(batch)%8   // [1, 8]
	rng := rand.New(rand.NewSource(seed))
	flows := randomFlows(rng, n, len(net.Hosts()), maxSize)
	var flips []topology.LinkID
	for i := 0; i < int(failLinks)%(len(fabric)+1); i++ {
		l := fabric[rng.Intn(len(fabric))]
		flips = append(flips, l, g.Reverse(l))
	}

	runCfg := func(reference bool) *Results {
		cfg := Config{
			Net: net,
			Controller: &fuzzFlipController{
				batchController: batchController{interval: 0.2, batch: b},
				flips:           flips,
				at:              0.7,
			},
			Flows:       flows,
			Seed:        seed,
			ElephantAge: 0.25,
			MaxTime:     120,
			Reference:   reference,
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	diffResults(t, runCfg(false), runCfg(true))
}
