package flowsim

import (
	"math"
	"math/rand"
	"testing"

	"dard/internal/topology"
	"dard/internal/workload"
)

// flapController is batchController plus a link set that fails and is
// repaired over and over, so the same links are tainted, refilled and
// left alone again across many recomputes.
type flapController struct {
	batchController
	links  []topology.LinkID
	period float64
	flaps  int
}

func (c *flapController) Start(s *Sim) {
	c.batchController.Start(s)
	for k := 0; k < c.flaps; k++ {
		at := c.period * (0.5 + float64(k))
		s.After(at, func() {
			for _, l := range c.links {
				s.SetLinkDown(l, true)
			}
		})
		s.After(at+c.period/2, func() {
			for _, l := range c.links {
				s.SetLinkDown(l, false)
			}
		})
	}
}

// differentialRun is one FuzzDifferentialFill input: flows arriving
// over several seconds (so arrivals, completions, batched moves and
// link flaps interleave), on a p=4 fat-tree or, for odd caps, a
// three-tier tree with mixed link capacities, where rounding makes
// progressive filling pop a key below an earlier one now and then.
// It steps the incremental engine and the reference scheduler one
// event at a time, requires the Float64bits of every flow's rate to
// agree after each event and the results to agree at the end, and
// returns the incremental run's differential and fallback fill counts.
// At event recordLoss it drops the incremental run's freeze records,
// as a restored run starts without them.
func differentialRun(t *testing.T, seed int64, nFlows, batch, flaps, caps uint8) (diff, full int64) {
	t.Helper()
	var net topology.Network
	var err error
	maxSize := 3e9
	if caps%2 == 0 {
		net, err = topology.NewFatTree(topology.FatTreeConfig{P: 4})
	} else {
		n := len(fuzzCapacities)
		c := int(caps/2) % (n * n * n)
		maxSize = 3 * fuzzCapacities[c%n]
		net, err = topology.NewThreeTier(topology.ThreeTierConfig{
			NumCores:       2,
			NumPods:        2,
			AccessPerPod:   2,
			HostsPerAccess: 3,
			HostCapacity:   fuzzCapacities[c%n],
			AccessUplink:   fuzzCapacities[c/n%n],
			AggrUplink:     fuzzCapacities[c/(n*n)],
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph()
	fabric := fabricLinks(g)
	rng := rand.New(rand.NewSource(seed))
	flows := randomFlows(rng, 8+int(nFlows)%113, len(net.Hosts()), maxSize) // [8, 120]
	for i := range flows {
		flows[i].Arrival *= 3 // spread arrivals over [0, 6) s; order holds
	}
	var links []topology.LinkID
	for i := 0; i < 1+rng.Intn(3); i++ {
		l := fabric[rng.Intn(len(fabric))]
		links = append(links, l, g.Reverse(l))
	}

	newSim := func(reference bool) *Sim {
		s, err := New(Config{
			Net: net,
			Controller: &flapController{
				batchController: batchController{interval: 0.17, batch: 1 + int(batch)%6},
				links:           links,
				period:          0.4,
				flaps:           int(flaps) % 16,
			},
			Arrivals:    workload.List(append([]workload.Flow(nil), flows...)),
			Seed:        seed,
			ElephantAge: 0.25,
			MaxTime:     60,
			Reference:   reference,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	inc, ref := newSim(false), newSim(true)
	for event := 0; ; event++ {
		if event == recordLoss {
			for id := range inc.recLink {
				inc.recLink[id], inc.newRate[id] = -1, 0
			}
		}
		inc.PauseAfter(1)
		ref.PauseAfter(1)
		incRes, incErr := inc.Run()
		refRes, refErr := ref.Run()
		if (incErr == nil) != (refErr == nil) {
			t.Fatalf("event %d: incremental run returned %v, reference %v", event, incErr, refErr)
		}
		if incErr == nil {
			diffResults(t, incRes, refRes)
			return inc.diffFills, inc.fullFills
		}
		if incErr != ErrPaused || refErr != ErrPaused {
			t.Fatalf("event %d: %v / %v", event, incErr, refErr)
		}
		for id := 0; id < inc.arrived; id++ {
			if a, b := inc.rate[id], ref.rate[id]; math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("event %d (t=%g): flow %d rate %x, reference %x", event, inc.now, id, math.Float64bits(a), math.Float64bits(b))
			}
		}
	}
}

// recordLoss is the event at which differentialRun drops the freeze
// records.
const recordLoss = 100

// FuzzDifferentialFill keeps freeze records alive across long runs and
// checks the differential fill against the reference scheduler after
// every event. See differentialRun.
func FuzzDifferentialFill(f *testing.F) {
	for _, s := range differentialSeeds {
		f.Add(s.seed, s.nFlows, s.batch, s.flaps, s.caps)
	}
	f.Fuzz(func(t *testing.T, seed int64, nFlows, batch, flaps, caps uint8) {
		differentialRun(t, seed, nFlows, batch, flaps, caps)
	})
}

var differentialSeeds = []struct {
	seed                       int64
	nFlows, batch, flaps, caps uint8
}{
	{1, 40, 2, 6, 0},
	{7, 112, 5, 15, 0},
	{42, 60, 1, 9, 63},
	{-5, 90, 3, 12, 31},
	{11, 24, 4, 3, 201},
}

// TestDifferentialFillRunsBothPaths pins that FuzzDifferentialFill's
// seeds reach both the differential fill and its fallback.
func TestDifferentialFillRunsBothPaths(t *testing.T) {
	var diff, full int64
	for _, s := range differentialSeeds {
		d, f := differentialRun(t, s.seed, s.nFlows, s.batch, s.flaps, s.caps)
		diff += d
		full += f
	}
	if diff == 0 || full == 0 {
		t.Fatalf("seeds ran %d differential and %d fallback fills; want both", diff, full)
	}
	t.Logf("%d differential and %d fallback fills", diff, full)
}
