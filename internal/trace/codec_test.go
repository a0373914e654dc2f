package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// The oracles below are the encoding/json forms the hand-written
// appenders replaced. WriteJSONL, the daemon's stream and checkpoints
// must keep writing exactly these bytes.

func oracleEventLine(e Event) ([]byte, error) {
	we := wireEvent{T: e.T, Kind: e.Kind.String(), Flow: e.Flow, Link: e.Link, A: e.A, B: e.B, V: e.V}
	return json.Marshal(jsonlLine{Event: &we})
}

func oracleSeriesLine(s *SeriesData) ([]byte, error) {
	ws := wireSeries{Metric: s.Metric.String(), Entity: s.Entity, Dropped: s.Dropped,
		Points: make([][2]float64, len(s.Points))}
	for j, p := range s.Points {
		ws.Points[j] = [2]float64{p.T, p.V}
	}
	return json.Marshal(jsonlLine{Series: &ws})
}

// sameEncoding fails t unless an appender's output (after prefix) and
// error match the oracle's: equal bytes, or errors with equal messages,
// with dst handed back unchanged on error.
func sameEncoding(t *testing.T, what string, prefix, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, encoding/json says %v", what, gotErr, wantErr)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s: the appender overwrote dst's prefix: %q", what, got)
	}
	if gotErr != nil {
		if len(got) != len(prefix) {
			t.Fatalf("%s: on error dst grew to %q", what, got)
		}
		return
	}
	if got := got[len(prefix):]; !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// FuzzAppendEventLine pins the appenders to encoding/json for arbitrary
// field bits: AppendEventLine against the JSONL event line,
// AppendEventStruct against json.Marshal of the Event itself, and the
// series and meta appenders against the JSONL lines built from the same
// bits and an arbitrary node name. NaN and ±Inf must fail as json.Marshal fails, unknown kinds and
// metrics spell as their String does.
func FuzzAppendEventLine(f *testing.F) {
	for _, seed := range []struct {
		t, v float64
		kind uint8
	}{
		{0, 0, uint8(KindFlowStart)},
		{0.1 + 0.2, 1.0 / 3.0, uint8(KindControlMsg)},
		{1e-6, 1e21, uint8(KindDrop)},
		{math.Nextafter(1e-6, 0), math.Nextafter(1e21, 0), uint8(KindPathDead)},
		{1e-7, 1.5e-300, 0},
		{5e-324, math.MaxFloat64, 200},
		{math.Copysign(0, -1), -2.5e-8, uint8(KindPathSwitch)},
		{123456789e-15, 1e20, uint8(KindFailDrop)},
		{math.NaN(), 1, uint8(KindFlowEnd)},
		{1, math.Inf(-1), uint8(KindLinkFail)},
		{math.Inf(1), 0, uint8(KindRetransmit)},
	} {
		f.Add(math.Float64bits(seed.t), math.Float64bits(seed.v), seed.kind, int32(-1), int32(7), int64(1)<<60, int64(-3), "tor-0")
	}
	f.Add(uint64(0), math.Float64bits(0.25), uint8(1), int32(0), int32(1), int64(0), int64(0), "core-1-2")
	f.Add(uint64(0), uint64(0), uint8(1), int32(0), int32(1), int64(0), int64(0), "")
	f.Add(uint64(0), uint64(0), uint8(1), int32(0), int32(1), int64(0), int64(0), "a<b>&\"c\"\\\x01\u2028\xff é")
	f.Fuzz(func(t *testing.T, tBits, vBits uint64, kind uint8, flow, link int32, a, b int64, name string) {
		e := Event{T: math.Float64frombits(tBits), Kind: Kind(kind), Flow: flow, Link: link, A: a, B: b,
			V: math.Float64frombits(vBits)}
		prefix := []byte("prefix\n")

		got, err := AppendEventLine(append([]byte(nil), prefix...), e)
		want, wantErr := oracleEventLine(e)
		sameEncoding(t, "event line", prefix, got, err, want, wantErr)
		if line, err := AppendEventLine(nil, e); wantErr == nil && (err != nil || !bytes.Equal(line, want)) {
			t.Fatalf("AppendEventLine(nil) %q, %v; want %q", line, err, want)
		}

		got, err = AppendEventStruct(append([]byte(nil), prefix...), e)
		want, wantErr = json.Marshal(e)
		sameEncoding(t, "event struct", prefix, got, err, want, wantErr)

		s := &SeriesData{Metric: Metric(kind), Entity: a, Dropped: int(b),
			Points: []Point{{T: e.T, V: e.V}, {T: e.V, V: float64(flow)}, {T: float64(link), V: e.T}}}
		var memo floatMemo
		for _, pts := range [][]Point{s.Points, s.Points, nil} { // the second pass hits the memo
			s.Points = pts
			got, err = appendSeriesLine(append([]byte(nil), prefix...), s, &memo)
			want, wantErr = oracleSeriesLine(s)
			sameEncoding(t, "series line", prefix, got, err, want, wantErr)
		}

		half := name[:len(name)/2]
		m := &Meta{Topology: name, Scheduler: half, Engine: Kind(kind).String(), Seed: a, ProbeInterval: e.V}
		if flow%3 != 0 {
			m.Links = []LinkMeta{
				{ID: link, From: name, To: half, Capacity: e.T, Core: flow%2 == 0},
				{ID: flow, From: half, Capacity: e.V},
			}
		}
		for _, meta := range []*Meta{m, {}} {
			got, err = appendMetaLine(append([]byte(nil), prefix...), meta, &memo, nil)
			want, wantErr = json.Marshal(jsonlLine{Meta: meta})
			sameEncoding(t, "meta line", prefix, got, err, want, wantErr)
		}
	})
}

// TestWriteJSONLMatchesOracle writes a trace whose floats cross every
// spelling boundary, and whose link list is long enough for its meta
// line to be written out in several pieces, and compares each line with
// encoding/json's.
func TestWriteJSONLMatchesOracle(t *testing.T) {
	tr := synthetic()
	for i := 0; i < 2000; i++ {
		tr.Meta.Links = append(tr.Meta.Links, LinkMeta{ID: int32(len(tr.Meta.Links)),
			From: fmt.Sprintf("aggr%d_%d", i/32, i%32), To: fmt.Sprintf("core<%d>", i), Capacity: float64(i) * 1e7, Core: i%3 == 0})
	}
	for _, v := range []float64{1e-7, 1e-6, 1e20, 1e21, 2.5e-300, math.Copysign(0, -1), 0.1 + 0.2} {
		tr.Events = append(tr.Events, Event{T: v, Kind: KindControlMsg, Flow: -1, Link: -1, V: -v})
		tr.Series = append(tr.Series, SeriesData{Metric: MetricMinBoNF, Entity: 1<<32 | 2, Dropped: 3,
			Points: []Point{{T: v, V: v * 3}}})
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(jsonlLine{Meta: &tr.Meta}); err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		line, err := oracleEventLine(e)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
	}
	for i := range tr.Series {
		line, err := oracleSeriesLine(&tr.Series[i])
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSONL differs from encoding/json:\n got %s\nwant %s", buf.Bytes(), want.Bytes())
	}
	tr.Series[0].Points[0].V = math.NaN()
	if err := WriteJSONL(&bytes.Buffer{}, tr); err == nil {
		t.Error("a NaN sample was written")
	}
}

var lineSink []byte

func BenchmarkAppendEventLine(b *testing.B) {
	ev := Event{T: 1.2345678901, Kind: KindPathSwitch, Flow: 1234, Link: -1, A: 2, B: 5, V: 2.68435456e8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lineSink, _ = AppendEventLine(lineSink[:0], ev)
	}
}

// BenchmarkEventLineOracle is the encoding/json spelling the appender
// replaced, for comparison.
func BenchmarkEventLineOracle(b *testing.B) {
	ev := Event{T: 1.2345678901, Kind: KindPathSwitch, Flow: 1234, Link: -1, A: 2, B: 5, V: 2.68435456e8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lineSink, _ = oracleEventLine(ev)
	}
}
