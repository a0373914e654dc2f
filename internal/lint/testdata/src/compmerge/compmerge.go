// Package compmerge exercises maporder on the component-merge pattern:
// per-component recompute results fanned back into one rate table. The
// engine's contract (flowsim/maxmin.go) is that components merge in
// stable partition order; keying scratch results by component in a map
// and merging by map iteration is exactly the bug that would make two
// runs of one scenario disagree.
package compmerge

import "sort"

type span struct {
	lo, hi int
}

type result struct {
	flows []int
	rates []float64
}

// mergeByMap is the hazard: per-component results keyed by component ID
// and installed in map order. Rate installation is per-flow (flows are
// disjoint across components), but the emitted order leaks into any
// order-observing consumer, and the analyzer cannot prove the keys are
// disjoint — exactly why the engine keeps components in a slice.
func mergeByMap(results map[int]result, out chan<- int) {
	for _, r := range results { // want `channel send`
		for _, fid := range r.flows {
			out <- fid
		}
	}
}

// totalByMap accumulates a float across components in map order: FP
// addition is not associative, so the sum's low bits depend on which
// component the runtime happens to visit first.
func totalByMap(results map[int]result) float64 {
	var sum float64
	for _, r := range results { // want `floating-point accumulation into sum`
		for _, rate := range r.rates {
			sum += rate
		}
	}
	return sum
}

// flowsByMap collects the recomputed flow IDs for the apply loop by
// ranging the map — the apply order would differ run to run.
func flowsByMap(results map[int]result) []int {
	var flows []int
	for _, r := range results { // want `append to flows \(not sorted afterwards\)`
		flows = append(flows, r.flows...)
	}
	return flows
}

// mergeBySpans is the engine's actual shape and stays quiet: the
// partition is a slice of contiguous spans in deterministic seed order,
// and the merge walks it by index. No map in sight.
func mergeBySpans(comps []span, compFlows []int, newRate, rate []float64) {
	for _, c := range comps {
		for _, fid := range compFlows[c.lo:c.hi] {
			rate[fid] = newRate[fid]
		}
	}
}

// collectSorted shows the canonical repair when a map is unavoidable:
// extract component IDs, sort, then merge in sorted order.
func collectSorted(results map[int]result) []int {
	ids := make([]int, 0, len(results))
	for id := range results {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var flows []int
	for _, id := range ids {
		flows = append(flows, results[id].flows...)
	}
	return flows
}

// perFlowWrites keyed by the range key are per-slot and commutative, so
// a map merge whose only effect is disjoint element writes is legal.
func perFlowWrites(pending map[int]float64, rate []float64) {
	for fid, r := range pending {
		rate[fid] = r
	}
}

// A justified suppression still silences a merge-order finding.
func suppressed(results map[int]result) []int {
	var flows []int
	//dardlint:ordered fixture: consumer treats the list as a set and sorts before use
	for _, r := range results {
		flows = append(flows, r.flows...)
	}
	return flows
}

// drainWorkers is the fan-in sibling of mergeByMap: results pulled off
// a channel arrive in completion order, so appending them as they land
// is the same bit-identity bug with a different container.
func drainWorkers(results chan result) []int {
	var flows []int
	for r := range results { // want `channel drain merges worker results in completion order \(append to flows`
		flows = append(flows, r.flows...)
	}
	return flows
}

// drainBySlot repairs the drain the way the engine does: workers name
// their partition slot and the drain only parks results; a later
// slice-ordered loop does the merge.
func drainBySlot(results chan indexed, parts [][]int) []int {
	for r := range results {
		parts[r.slot] = r.flows
	}
	var flows []int
	for _, p := range parts {
		flows = append(flows, p...)
	}
	return flows
}

type indexed struct {
	slot  int
	flows []int
}
