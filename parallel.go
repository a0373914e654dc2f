package dard

import (
	"context"
	"fmt"
	"strings"

	"dard/internal/parallel"
)

// This file is the facade of the concurrent experiment runner. The
// paper's evaluation is a grid of independent seeded simulations that
// ns-2 forced the authors to run one at a time; here the cells fan out
// across a worker pool while staying bit-identical to a serial run:
//
//   - results are stored at each cell's own index, so assembly never
//     depends on completion order;
//   - every cell carries its own seed, derived from the base seed and
//     the cell's identity (CellSeed), never from shared RNG state, so the
//     numbers are independent of the worker count;
//   - scenarios sharing one pre-built *Topology are safe to run
//     concurrently — paths resolve through immutable construction-time
//     index tables (topology.PathSet), so there is no shared mutable
//     state on the data path at all.

// RunAll executes the scenarios concurrently on a worker pool and
// returns their reports in input order. workers <= 0 uses one worker per
// CPU; 1 reproduces a serial run exactly. Scenarios run verbatim — each
// report is identical to what Scenario.Run would have produced — so
// results never depend on the worker count. Per-scenario errors name
// the failing scenario by its index in the list and its cell
// (topology/pattern/scheduler/engine), since cells that differ only in
// load share the latter, and are collected with errors.Join; the
// surviving reports are still returned (failed slots stay nil).
func RunAll(scenarios []Scenario, workers int) ([]*Report, error) {
	return RunAllContext(context.Background(), scenarios, workers)
}

// RunAllContext is RunAll with cooperative cancellation: canceling ctx
// stops in-flight scenarios at their next boundary and skips unstarted
// ones. Completed reports are still returned at their slots; every
// abandoned slot contributes its cancellation error to the join.
func RunAllContext(ctx context.Context, scenarios []Scenario, workers int) ([]*Report, error) {
	reports := make([]*Report, len(scenarios))
	err := parallel.ForEachContext(ctx, workers, len(scenarios), func(i int) error {
		rep, err := scenarios[i].RunContext(ctx)
		if err != nil {
			return fmt.Errorf("scenario %d %s: %w", i, strings.Join(scenarios[i].cell(), "/"), err)
		}
		reports[i] = rep
		return nil
	})
	return reports, err
}

// CellSeed derives the RNG seed of one experiment cell from the base
// seed and the cell's stable identity (topology name and traffic
// pattern), via splitmix64. The scheduler is deliberately not part of
// the key: every scheduler of a cell row sees the same workload, which
// keeps A-vs-B comparisons paired the way the paper's tables are.
func CellSeed(base int64, topo *Topology, pat Pattern) int64 {
	if base == 0 {
		base = 1 // Scenario's default seed
	}
	return parallel.Seed(base, topo.Name()+"/"+string(pat))
}
