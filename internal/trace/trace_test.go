package trace

import (
	"math"
	"reflect"
	"testing"
)

func TestKindAndMetricNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("kind %d: %q does not parse back", k, k.String())
		}
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	for _, m := range []Metric{MetricLinkUtil, MetricQueueBits, MetricFlowCwnd, MetricFlowRate, MetricMinBoNF} {
		got, ok := ParseMetric(m.String())
		if !ok || got != m {
			t.Errorf("metric %d: %q does not parse back", m, m.String())
		}
	}
	if Kind(200).String() != "Unknown" {
		t.Error("unknown kind should stringify as Unknown")
	}
}

func TestNopTracer(t *testing.T) {
	var tr Tracer = Nop{}
	if tr.Enabled() {
		t.Fatal("Nop must report disabled")
	}
	tr.Emit(Event{Kind: KindDrop})
	tr.Sample(MetricLinkUtil, 1, 0, 0.5)
	if OrNop(nil) != (Nop{}) {
		t.Fatal("OrNop(nil) should be Nop")
	}
	rec := NewRecorder(RecorderOptions{})
	if OrNop(rec) != Tracer(rec) {
		t.Fatal("OrNop should pass a non-nil tracer through")
	}
}

func TestRingBufferEviction(t *testing.T) {
	rec := NewRecorder(RecorderOptions{MaxPoints: 4})
	for i := 0; i < 10; i++ {
		rec.Sample(MetricLinkUtil, 7, float64(i), float64(i)*10)
	}
	tr := rec.Take()
	if len(tr.Series) != 1 {
		t.Fatalf("want 1 series, got %d", len(tr.Series))
	}
	s := tr.Series[0]
	if s.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", s.Dropped)
	}
	want := []Point{{6, 60}, {7, 70}, {8, 80}, {9, 90}}
	if !reflect.DeepEqual(s.Points, want) {
		t.Errorf("ring kept %v, want %v (chronological tail)", s.Points, want)
	}
}

// TestRingKeepsNewestPoints: whatever the number of samples, a capped
// series keeps its newest MaxPoints in order and counts the rest as
// dropped, including when the ring has wrapped an exact number of times.
func TestRingKeepsNewestPoints(t *testing.T) {
	for n := 1; n <= 13; n++ {
		rec := NewRecorder(RecorderOptions{MaxPoints: 4})
		for i := 0; i < n; i++ {
			rec.Sample(MetricFlowRate, 3, float64(i), 1)
		}
		s := rec.Take().Series[0]
		first := max(0, n-4)
		if s.Dropped != first || len(s.Points) != n-first {
			t.Fatalf("%d samples: dropped %d, kept %d", n, s.Dropped, len(s.Points))
		}
		for i, p := range s.Points {
			if p.T != float64(first+i) {
				t.Fatalf("%d samples: kept %v", n, s.Points)
			}
		}
	}
}

func TestRecorderDropsNonFiniteSamples(t *testing.T) {
	rec := NewRecorder(RecorderOptions{})
	rec.Sample(MetricMinBoNF, 1, 0, math.Inf(1))
	rec.Sample(MetricMinBoNF, 1, 1, math.NaN())
	rec.Sample(MetricMinBoNF, 1, 2, 5)
	tr := rec.Take()
	if len(tr.Series) != 1 || len(tr.Series[0].Points) != 1 {
		t.Fatalf("want exactly the finite sample, got %+v", tr.Series)
	}
	if tr.Series[0].Points[0] != (Point{2, 5}) {
		t.Errorf("kept %v", tr.Series[0].Points[0])
	}
}

func TestTakeOrdersSeriesDeterministically(t *testing.T) {
	type seriesKey struct {
		metric Metric
		entity int64
	}
	rec := NewRecorder(RecorderOptions{})
	rec.Sample(MetricFlowRate, 9, 0, 1)
	rec.Sample(MetricLinkUtil, 5, 0, 1)
	rec.Sample(MetricLinkUtil, 2, 0, 1)
	rec.Sample(MetricFlowCwnd, 1, 0, 1)
	// Entities outside the dense tables sort around the dense ones.
	rec.Sample(MetricLinkUtil, 7<<32|3, 0, 1)
	rec.Sample(MetricLinkUtil, -4, 0, 1)
	rec.Sample(MetricLinkUtil, 1<<20, 0, 1)
	rec.Sample(MetricLinkUtil, -9, 0, 1)
	rec.Sample(MetricMinBoNF, 2<<32|1, 0, 1)
	rec.Sample(MetricMinBoNF, 1<<32|5, 0, 1)
	tr := rec.Take()
	var got []seriesKey
	for _, s := range tr.Series {
		got = append(got, seriesKey{s.Metric, s.Entity})
	}
	want := []seriesKey{
		{MetricLinkUtil, -9}, {MetricLinkUtil, -4}, {MetricLinkUtil, 2}, {MetricLinkUtil, 5},
		{MetricLinkUtil, 1 << 20}, {MetricLinkUtil, 7<<32 | 3},
		{MetricFlowCwnd, 1}, {MetricFlowRate, 9},
		{MetricMinBoNF, 1<<32 | 5}, {MetricMinBoNF, 2<<32 | 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("series order %v, want %v", got, want)
	}
}

// synthetic builds a small hand-written trace exercising every aggregator
// query.
func synthetic() *Trace {
	rec := NewRecorder(RecorderOptions{})
	rec.SetMeta(Meta{
		Topology: "test", Scheduler: "DARD", Pattern: "stride", Engine: "flow", Seed: 1,
		ProbeInterval: 1,
		Links: []LinkMeta{
			{ID: 0, From: "tor0", To: "aggr0", Capacity: 1e9},
			{ID: 1, From: "aggr0", To: "core0", Capacity: 1e9, Core: true},
			{ID: 2, From: "aggr1", To: "core0", Capacity: 2e9, Core: true},
		},
	})
	rec.Emit(Event{T: 0.5, Kind: KindFlowStart, Flow: 0, Link: -1, A: 10, B: 20, V: 8e6})
	rec.Emit(Event{T: 0.75, Kind: KindFlowStart, Flow: 1, Link: -1, V: 8e6})
	rec.Emit(Event{T: 1.25, Kind: KindPathSwitch, Flow: 0, Link: -1, A: 0, B: 1})
	rec.Emit(Event{T: 1.5, Kind: KindControlMsg, Flow: -1, Link: -1, V: 80})
	rec.Emit(Event{T: 2.25, Kind: KindPathSwitch, Flow: 0, Link: -1, A: 1, B: 2})
	rec.Emit(Event{T: 2.5, Kind: KindRetransmit, Flow: 1, Link: -1, A: 7})
	rec.Emit(Event{T: 2.6, Kind: KindDrop, Flow: 1, Link: 0, A: 8})
	rec.Emit(Event{T: 3.0, Kind: KindFlowEnd, Flow: 0, Link: -1, V: 8e6})
	rec.Emit(Event{T: 4.0, Kind: KindFlowEnd, Flow: 1, Link: -1, V: 8e6})
	// Flow 2 starts but never ends (cut off at MaxTime).
	rec.Emit(Event{T: 4.5, Kind: KindFlowStart, Flow: 2, Link: -1, V: 8e6})
	for _, tick := range []float64{1, 2, 3} {
		rec.Sample(MetricLinkUtil, 0, tick, 0.9)
		rec.Sample(MetricLinkUtil, 1, tick, 0.5)
		rec.Sample(MetricLinkUtil, 2, tick, 0.25)
		rec.Sample(MetricFlowRate, 0, tick, 1e8)
	}
	return rec.Take()
}

func TestAggregatorCompletions(t *testing.T) {
	a := NewAggregator(synthetic())
	comps := a.Completions()
	if len(comps) != 2 {
		t.Fatalf("want 2 completions (flow 2 unfinished), got %d", len(comps))
	}
	if comps[0].Flow != 0 || comps[0].TransferTime() != 2.5 {
		t.Errorf("flow 0: %+v", comps[0])
	}
	if comps[1].Flow != 1 || comps[1].TransferTime() != 3.25 {
		t.Errorf("flow 1: %+v", comps[1])
	}
	tt := a.TransferTimes()
	if !reflect.DeepEqual(tt, []float64{2.5, 3.25}) {
		t.Errorf("transfer times %v", tt)
	}
}

func TestAggregatorTimelines(t *testing.T) {
	a := NewAggregator(synthetic())
	tl := a.SwitchTimeline(1)
	if len(tl) != 3 {
		t.Fatalf("timeline %v", tl)
	}
	if tl[1].Count != 1 || tl[2].Count != 1 || tl[2].Cumulative != 2 {
		t.Errorf("switch timeline %+v", tl)
	}
	if got := a.RetxTimeline(1); len(got) != 3 || got[2].Count != 1 {
		t.Errorf("retx timeline %+v", got)
	}
	if a.ControlBytes() != 80 {
		t.Errorf("control bytes %g", a.ControlBytes())
	}
	if a.Duration() != 4.5 {
		t.Errorf("duration %g", a.Duration())
	}
	counts := a.EventCounts()
	if counts[KindFlowStart] != 3 || counts[KindPathSwitch] != 2 {
		t.Errorf("counts %v", counts)
	}
}

func TestAggregatorTopLinksAndBisection(t *testing.T) {
	a := NewAggregator(synthetic())
	top := a.TopLinks(2)
	if len(top) != 2 {
		t.Fatalf("top %v", top)
	}
	if top[0].Link != 0 || top[0].MeanUtil != 0.9 || top[0].Drops != 1 || top[0].Name != "tor0->aggr0" {
		t.Errorf("top[0] %+v", top[0])
	}
	if top[1].Link != 1 || top[1].MeanUtil != 0.5 {
		t.Errorf("top[1] %+v", top[1])
	}
	bis := a.BisectionSeries()
	if len(bis) != 3 {
		t.Fatalf("bisection %v", bis)
	}
	// Core links: 0.5*1e9 + 0.25*2e9 = 1e9 at every tick.
	for _, p := range bis {
		if p.V != 1e9 {
			t.Errorf("bisection at %g = %g, want 1e9", p.T, p.V)
		}
	}
}

func TestAggregatorFlowTimelines(t *testing.T) {
	a := NewAggregator(synthetic())
	fts := a.FlowTimelines()
	if len(fts) != 3 {
		t.Fatalf("want 3 timelines, got %d", len(fts))
	}
	f0 := fts[0]
	if f0.Flow != 0 || len(f0.Switches) != 2 || f0.End != 3.0 || len(f0.Rate) != 3 {
		t.Errorf("flow 0 timeline %+v", f0)
	}
	f1 := fts[1]
	if f1.Retx != 1 || f1.Drops != 1 {
		t.Errorf("flow 1 timeline %+v", f1)
	}
	if !math.IsNaN(fts[2].End) {
		t.Errorf("flow 2 should be unfinished, end=%g", fts[2].End)
	}
}
