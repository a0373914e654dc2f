package dard

import "math"

// Decision is the outcome of one application of Algorithm 1.
type Decision struct {
	// From is the index of the overloaded path to shift a flow off.
	From int
	// To is the index of the underloaded target path.
	To int
}

// Decide applies Algorithm 1's rule to a path state vector PV and a flow
// vector FV: find the host's active path with the smallest BoNF and the
// globally largest-BoNF path; propose shifting one flow if placing it on
// the target (estimated as bandwidth/(flows+1) of the target's bottleneck)
// still beats the current minimum by more than delta. The second result
// is false when no shift should happen.
func Decide(pv []PathState, fv []int, delta float64) (Decision, bool) {
	if len(pv) != len(fv) || len(pv) < 2 {
		return Decision{}, false
	}
	minIdx, maxIdx := -1, -1
	minBoNF := math.Inf(1)
	maxBoNF := math.Inf(-1)
	for i := range pv {
		if fv[i] > 0 && pv[i].BoNF < minBoNF {
			minBoNF = pv[i].BoNF
			minIdx = i
		}
		if pv[i].BoNF > maxBoNF {
			maxBoNF = pv[i].BoNF
			maxIdx = i
		}
	}
	if minIdx < 0 || maxIdx < 0 || minIdx == maxIdx {
		return Decision{}, false
	}
	est := pv[maxIdx].Bandwidth / float64(pv[maxIdx].Flows+1)
	if est-minBoNF <= delta {
		return Decision{}, false
	}
	return Decision{From: minIdx, To: maxIdx}, true
}
