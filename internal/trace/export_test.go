package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestJSONLRoundTrip: WriteJSONL then ReadJSONL reproduces the trace
// exactly, including floats with no short decimal representation.
func TestJSONLRoundTrip(t *testing.T) {
	tr := synthetic()
	// Awkward floats: results of accumulated arithmetic round-trip too.
	tr.Events = append(tr.Events, Event{T: 0.1 + 0.2, Kind: KindControlMsg, Flow: -1, Link: -1, V: 1.0 / 3.0})
	tr.Events = append(tr.Events, Event{T: math.Nextafter(1, 2), Kind: KindDrop, Flow: 0, Link: 2, A: 1 << 60})

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Meta, got.Meta) {
		t.Errorf("meta differs:\n%+v\n%+v", tr.Meta, got.Meta)
	}
	if !reflect.DeepEqual(tr.Events, got.Events) {
		t.Errorf("events differ")
	}
	if !reflect.DeepEqual(tr.Series, got.Series) {
		t.Errorf("series differ:\n%+v\n%+v", tr.Series, got.Series)
	}
}

func TestJSONLSecondRoundTripIsByteIdentical(t *testing.T) {
	tr := synthetic()
	var first bytes.Buffer
	if err := WriteJSONL(&first, tr); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteJSONL(&second, reread); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("write→read→write is not byte-identical")
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json\n",
		"unknown kind":   "{\"meta\":{}}\n{\"e\":{\"t\":1,\"k\":\"Nope\",\"f\":0,\"l\":0,\"a\":0,\"b\":0,\"v\":0}}\n",
		"unknown metric": "{\"meta\":{}}\n{\"s\":{\"m\":\"nope\",\"ent\":0,\"p\":[]}}\n",
		"no meta":        "{\"e\":{\"t\":1,\"k\":\"Drop\",\"f\":0,\"l\":0,\"a\":0,\"b\":0,\"v\":0}}\n",
		"duplicate meta": "{\"meta\":{}}\n{\"meta\":{}}\n",
		"empty record":   "{\"meta\":{}}\n{}\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	tr := synthetic()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	withBlanks := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	if _, err := ReadJSONL(strings.NewReader(withBlanks)); err != nil {
		t.Fatalf("blank lines should be ignored: %v", err)
	}
}

func TestCSVExports(t *testing.T) {
	tr := synthetic()
	var ev bytes.Buffer
	if err := WriteEventsCSV(&ev, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(ev.String()), "\n")
	if lines[0] != "t,kind,flow,link,a,b,v" {
		t.Errorf("header %q", lines[0])
	}
	if len(lines) != 1+len(tr.Events) {
		t.Errorf("want %d event rows, got %d", len(tr.Events), len(lines)-1)
	}
	if !strings.Contains(ev.String(), "FlowStart") {
		t.Error("events CSV missing kind names")
	}

	var se bytes.Buffer
	if err := WriteSeriesCSV(&se, tr); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(se.String()), "\n")
	wantRows := 0
	for _, s := range tr.Series {
		wantRows += len(s.Points)
	}
	if len(rows) != 1+wantRows {
		t.Errorf("want %d series rows, got %d", wantRows, len(rows)-1)
	}
	if !strings.HasPrefix(rows[1], "link_util,0,1,") {
		t.Errorf("first series row %q", rows[1])
	}
}

func BenchmarkNopEmit(b *testing.B) {
	var tr Tracer = Nop{}
	ev := Event{T: 1, Kind: KindDrop, Flow: 3, Link: 7, A: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

func BenchmarkRecorderEmit(b *testing.B) {
	rec := NewRecorder(RecorderOptions{})
	ev := Event{T: 1, Kind: KindDrop, Flow: 3, Link: 7, A: 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Emit(ev)
	}
}

// FuzzReadJSONL feeds ReadJSONL arbitrary bytes. It must never panic,
// and any trace it accepts must come back equal from WriteJSONL and a
// second ReadJSONL.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, synthetic()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("{\"meta\":{}}\n"))
	f.Add([]byte("{\"meta\":{\"links\":[{\"id\":3,\"from\":\"a\",\"to\":\"b\",\"capacity\":1e9,\"core\":true}]}}\n\n" +
		"{\"e\":{\"t\":0.5,\"k\":\"Drop\",\"f\":1,\"l\":-1,\"a\":2,\"b\":0,\"v\":-0}}\n" +
		"{\"s\":{\"m\":\"link_util\",\"ent\":4,\"dropped\":2,\"p\":[[1,0.5],[2]]}}\n"))
	f.Add([]byte("{\"meta\":{\"links\":[]}}")) // an empty link list reads as nil
	f.Add([]byte("{\"meta\":{},\"e\":{\"t\":1,\"k\":\"Drop\"}}\n{\"s\":{\"m\":\"link_util\",\"p\":null}}"))
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, tr); err != nil {
			t.Fatalf("accepted trace does not write: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace:\n%#v\n%#v", tr, back)
		}
	})
}
