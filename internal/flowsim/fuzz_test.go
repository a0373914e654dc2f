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
		g := ft.Graph()
		fabric := fabricLinks(g)

		n := 2 + int(nFlows)%79 // [2, 80]
		b := 1 + int(batch)%8   // [1, 8]
		rng := rand.New(rand.NewSource(seed))
		flows := randomFlows(rng, n, len(ft.Hosts()), 1.5e9)
		var flips []topology.LinkID
		for i := 0; i < int(failLinks)%(len(fabric)+1); i++ {
			l := fabric[rng.Intn(len(fabric))]
			flips = append(flips, l, g.Reverse(l))
		}

		runCfg := func(reference bool) *Results {
			cfg := Config{
				Net: ft,
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
	})
}
