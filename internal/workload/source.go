package workload

// Source streams a workload into an engine one flow at a time.
// OpenPoisson is the paper's workload; List serves a fixed list. Every
// engine pulls from its source as it runs, which is what lets a run be
// open-ended, and holds at most the next flow ahead of its clock; a
// flow a run never reached stays in the source.
//
// Flows come out with dense sequential IDs (0, 1, 2, ...) in
// non-decreasing arrival order, and the engines check each one with
// Flow.Check before they schedule it. Engines Peek for the next arrival
// time (the flow engine at every event boundary), so a source keeps its
// next flow materialized: Peek is cheap and does not advance the stream.
//
// A source is a pure function of how it was built: a checkpoint records
// only how many flows the run took, and a restore, handed a source
// built the same way, replays that many through Next.
type Source interface {
	// Peek returns the next flow without consuming it; ok is false once
	// the source is exhausted.
	Peek() (wf Flow, ok bool)
	// Next consumes and returns the next flow.
	Next() (wf Flow, ok bool)
}

// List returns a Source that yields flows in order.
func List(flows []Flow) Source { return &list{flows: flows} }

type list struct {
	flows []Flow
	taken int
}

// SizeHint returns how many flows the list yields in all, those already
// taken included, so an engine can size its per-flow state once.
func (l *list) SizeHint() int { return l.taken + len(l.flows) }

func (l *list) Peek() (Flow, bool) {
	if len(l.flows) == 0 {
		return Flow{}, false
	}
	return l.flows[0], true
}

func (l *list) Next() (Flow, bool) {
	wf, ok := l.Peek()
	if ok {
		l.flows = l.flows[1:]
		l.taken++
	}
	return wf, ok
}

// Drain consumes src and returns its flows. It returns only once src is
// exhausted, so src must be bounded.
func Drain(src Source) []Flow {
	var flows []Flow
	for wf, ok := src.Next(); ok; wf, ok = src.Next() {
		flows = append(flows, wf)
	}
	return flows
}
