package dard

import (
	"math"

	"dard/internal/topology"
)

// Decision is the outcome of one application of Algorithm 1.
type Decision struct {
	// From is the index of the overloaded path to shift a flow off.
	From int
	// To is the index of the underloaded target path.
	To int
}

// pathReader reads single entries of a monitor's path state vector PV:
// from the materialized vector when there is one, or else by folding
// the one path asked for from a port view (foldPathState, the fold
// foldPV runs for every path), so a reader pays only for the entries
// it reads.
type pathReader struct {
	// pv is the materialized vector; nil reads ps's paths through r.
	pv  []PathState
	ps  topology.PathSet
	r   linkReader
	buf []topology.LinkID
	// links counts the path links handed to the fold.
	links int
}

// len returns the number of paths, PV's length.
func (pr *pathReader) len() int {
	if pr.pv != nil {
		return len(pr.pv)
	}
	return pr.ps.Len()
}

// above returns path i's state and whether its BoNF exceeds floor. When
// it does not, the state may be partly folded: its BoNF is then at most
// floor, and nothing else of it is meaningful.
func (pr *pathReader) above(i int, floor float64) (PathState, bool, error) {
	if pr.pv != nil {
		return pr.pv[i], pr.pv[i].BoNF > floor, nil
	}
	pr.buf = pr.ps.AppendLinks(i, pr.buf[:0])
	pr.links += len(pr.buf)
	st, err := foldPathState(pr.buf, pr.r, floor)
	return st, st.BoNF > floor, err
}

// decide applies Algorithm 1's rule (§2.5) to the PV pr reads and the
// flow vector whose non-zero entries are active, the distinct paths the
// host's elephants sit on in ascending order: find the active path with
// the smallest BoNF and the lowest-index path with the largest; propose
// shifting one flow if placing it on the target (estimated as
// bandwidth/(flows+1) of the target's bottleneck) still beats the
// current minimum by more than delta. The second result is false when
// no shift should happen.
//
// It reads only what the rule can pick. The minimum folds just the
// active paths. The maximum walks the paths in index order, gives up on
// a path as soon as its BoNF falls to the best so far (a strict > would
// reject it), and stops at the first +Inf path, which nothing after it
// can beat. Over a materialized PV this is exactly the full scan's
// answer, and over a view it is the answer of the PV foldPV would make.
func (pr *pathReader) decide(active []int, delta float64) (Decision, bool, error) {
	if pr.len() < 2 {
		return Decision{}, false, nil
	}
	minIdx, minBoNF := -1, math.Inf(1)
	for _, p := range active {
		st, _, err := pr.above(p, math.Inf(-1))
		if err != nil {
			return Decision{}, false, err
		}
		if st.BoNF < minBoNF {
			minIdx, minBoNF = p, st.BoNF
		}
	}
	if minIdx < 0 {
		return Decision{}, false, nil
	}
	maxIdx, best := -1, PathState{BoNF: math.Inf(-1)}
	for i := 0; i < pr.len() && !math.IsInf(best.BoNF, 1); i++ {
		st, ok, err := pr.above(i, best.BoNF)
		if err != nil {
			return Decision{}, false, err
		}
		if ok {
			maxIdx, best = i, st
		}
	}
	if maxIdx < 0 || minIdx == maxIdx {
		return Decision{}, false, nil
	}
	est := best.Bandwidth / float64(best.Flows+1)
	if est-minBoNF <= delta {
		return Decision{}, false, nil
	}
	return Decision{From: minIdx, To: maxIdx}, true, nil
}
