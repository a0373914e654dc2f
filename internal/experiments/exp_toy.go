package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dard/internal/detrand"
	"dard/internal/game"
	"dard/internal/parallel"
	"dard/internal/topology"
)

// Table1 replays the toy example of §2.2 (Figure 1 / Table 1): three
// elephant flows initially collide on core1 of a p=4 fat-tree;
// asynchronous selfish scheduling spreads them in two moves and raises
// the global minimum BoNF from 1/3 Gbps to a full link.
func Table1() (*Result, error) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		return nil, err
	}
	tor := func(pod, idx int) topology.NodeID { return ft.ToRsOfPod(pod)[idx] }
	flows := [][2]topology.NodeID{
		{tor(0, 0), tor(1, 0)}, // Flow 0: E11 -> E21
		{tor(0, 1), tor(1, 1)}, // Flow 1: E13 -> E24
		{tor(2, 0), tor(1, 0)}, // Flow 2: E31 -> E22
	}
	g, _, err := game.FromNetwork(ft, flows, 0.05e9)
	if err != nil {
		return nil, err
	}
	start := game.Strategy{0, 0, 0}
	d, err := game.NewDynamics(g, start)
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	values := make(map[string]float64)
	round := 0
	describe := func() {
		minB := g.MinBoNF(d.S) / 1e9
		fmt.Fprintf(&b, "round %d: strategy %v  min BoNF %.3f Gbps\n", round, d.S, minB)
		values[fmt.Sprintf("round%d/minBoNF_Gbps", round)] = minB
	}
	describe()
	rng := rand.New(detrand.NewStd(1))
	for round = 1; round <= 5; round++ {
		movedAny := false
		order := rng.Perm(g.NumFlows())
		for _, f := range order {
			if moved, to := d.BestResponse(f); moved {
				fmt.Fprintf(&b, "  flow %d shifts to path %d (core%d)\n", f, to, to+1)
				movedAny = true
			}
		}
		describe()
		if !movedAny {
			fmt.Fprintf(&b, "converged: Nash equilibrium after %d moves\n", d.Steps)
			break
		}
	}
	values["moves"] = float64(d.Steps)
	if d.IsNash() {
		values["nash"] = 1
	}
	return &Result{
		ID:     "Table 1",
		Title:  "toy example: selfish scheduling converges in two moves",
		Text:   b.String(),
		Values: values,
	}, nil
}

// NashConvergence validates Theorem 2 statistically: over random
// congestion games, asynchronous selfish dynamics converge to a Nash
// equilibrium in a bounded number of moves with a monotone minimum BoNF.
// Trials fan out across the worker pool (workers <= 0 uses every CPU, 1
// is serial); each trial owns an RNG seeded from (seed, trial index), so
// the aggregate statistics are identical for every worker count.
func NashConvergence(trials int, seed int64, workers int) (*Result, error) {
	if trials <= 0 {
		trials = 50
	}
	type trialResult struct{ steps, flows int }
	results := make([]trialResult, trials)
	err := parallel.ForEach(workers, trials, func(trial int) error {
		rng := rand.New(detrand.NewStd(parallel.Seed(seed, fmt.Sprintf("nash/trial=%d", trial))))
		g := randomGame(rng)
		start := make(game.Strategy, g.NumFlows())
		for f := range start {
			start[f] = rng.Intn(len(g.Routes[f]))
		}
		d, err := game.NewDynamics(g, start)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		n, err := d.RunAsync(rng, 0)
		if err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		if !d.IsNash() {
			return fmt.Errorf("trial %d: terminal state is not Nash", trial)
		}
		results[trial] = trialResult{steps: n, flows: g.NumFlows()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var steps, flowsTotal int
	maxSteps := 0
	for _, r := range results {
		steps += r.steps
		flowsTotal += r.flows
		if r.steps > maxSteps {
			maxSteps = r.steps
		}
	}
	values := map[string]float64{
		"trials":         float64(trials),
		"meanMoves":      float64(steps) / float64(trials),
		"maxMoves":       float64(maxSteps),
		"movesPerFlow":   float64(steps) / float64(flowsTotal),
		"allConvergedOK": 1,
	}
	return &Result{
		ID:     "Theorem 2",
		Title:  "selfish dynamics converge to Nash equilibria (Appendix B)",
		Text:   renderValues(values),
		Values: values,
	}, nil
}

func randomGame(rng *rand.Rand) *game.Game {
	nLinks := 6 + rng.Intn(12)
	caps := make([]float64, nLinks)
	for i := range caps {
		caps[i] = 1e9 * float64(1+rng.Intn(2))
	}
	nFlows := 3 + rng.Intn(12)
	routes := make([][][]int, nFlows)
	for f := range routes {
		nRoutes := 2 + rng.Intn(3)
		for r := 0; r < nRoutes; r++ {
			length := 1 + rng.Intn(3)
			route := make([]int, 0, length)
			seen := map[int]bool{}
			for len(route) < length {
				l := rng.Intn(nLinks)
				if !seen[l] {
					seen[l] = true
					route = append(route, l)
				}
			}
			routes[f] = append(routes[f], route)
		}
	}
	g, err := game.New(caps, routes, 1e7)
	if err != nil {
		panic(err)
	}
	return g
}
