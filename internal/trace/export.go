package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
)

// The JSONL layout: line 1 carries the meta record, then one line per
// event in emission order, then one line per series in (metric, entity)
// order. Every line is appended by hand, byte for byte what
// encoding/json writes for jsonlLine, with every float spelled by
// appendFloat: the shortest representation that parses back to the
// same bits, so WriteJSONL → ReadJSONL is a lossless round trip; the
// exporter tests assert deep equality, and FuzzAppendEventLine pins the
// appenders to encoding/json.

// jsonlLine is one line of the JSONL stream; exactly one field is set.
type jsonlLine struct {
	Meta   *Meta       `json:"meta,omitempty"`
	Event  *wireEvent  `json:"e,omitempty"`
	Series *wireSeries `json:"s,omitempty"`
}

// wireEvent is the JSON shape of an Event. Flow and Link keep their -1
// sentinels explicit (no omitempty): flow 0 and link 0 are valid IDs.
type wireEvent struct {
	T    float64 `json:"t"`
	Kind string  `json:"k"`
	Flow int32   `json:"f"`
	Link int32   `json:"l"`
	A    int64   `json:"a"`
	B    int64   `json:"b"`
	V    float64 `json:"v"`
}

type wireSeries struct {
	Metric  string       `json:"m"`
	Entity  int64        `json:"ent"`
	Dropped int          `json:"dropped,omitempty"`
	Points  [][2]float64 `json:"p"`
}

// WriteJSONL streams the trace as JSON lines.
func WriteJSONL(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	var line []byte // reused for every line
	var memo floatMemo
	put := func(b []byte, err error) error {
		if err != nil {
			return err
		}
		line = append(b, '\n')
		_, err = bw.Write(line)
		return err
	}
	spill := func(b []byte) []byte {
		bw.Write(b) // a failed write sticks; Flush reports it
		return b[:0]
	}
	if err := put(appendMetaLine(line, &tr.Meta, &memo, spill)); err != nil {
		return err
	}
	for i := range tr.Events {
		if err := put(AppendEventLine(line[:0], tr.Events[i])); err != nil {
			return err
		}
	}
	for i := range tr.Series {
		if err := put(appendSeriesLine(line[:0], &tr.Series[i], &memo)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a stream written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 64<<20) // series lines can be long
	lineNo := 0
	sawMeta := false
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line jsonlLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch {
		case line.Meta != nil:
			if sawMeta {
				return nil, fmt.Errorf("trace: line %d: duplicate meta record", lineNo)
			}
			sawMeta = true
			tr.Meta = *line.Meta
			if len(tr.Meta.Links) == 0 {
				// WriteJSONL omits an empty link list, which reads back
				// as nil; "links":[] must read the same.
				tr.Meta.Links = nil
			}
		case line.Event != nil:
			we := line.Event
			k, ok := ParseKind(we.Kind)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineNo, we.Kind)
			}
			tr.Events = append(tr.Events, Event{T: we.T, Kind: k, Flow: we.Flow, Link: we.Link, A: we.A, B: we.B, V: we.V})
		case line.Series != nil:
			ws := line.Series
			m, ok := ParseMetric(ws.Metric)
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown metric %q", lineNo, ws.Metric)
			}
			sd := SeriesData{Metric: m, Entity: ws.Entity, Dropped: ws.Dropped}
			for _, p := range ws.Points {
				sd.Points = append(sd.Points, Point{T: p[0], V: p[1]})
			}
			tr.Series = append(tr.Series, sd)
		default:
			return nil, fmt.Errorf("trace: line %d: empty record", lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, fmt.Errorf("trace: missing meta record")
	}
	return tr, nil
}

// AppendEventLine appends one event's JSONL wire form, without the
// trailing newline, to dst: exactly the bytes encoding/json writes for
// jsonlLine{Event: &wireEvent{...}}, so streamed lines and exported
// trace files parse identically. The serving layer's live NDJSON
// stream appends every event of a batch into one buffer with it. A NaN
// or infinite T or V is an error, as it is for json.Marshal; dst then
// comes back unchanged.
func AppendEventLine(dst []byte, e Event) ([]byte, error) { return appendEvent(dst, e, &lineKeys) }

// AppendEventStruct appends e as encoding/json marshals the Event
// struct itself — field names as declared, Kind as its number — which
// is how checkpoints carry a job's event history. Errors as
// AppendEventLine.
func AppendEventStruct(dst []byte, e Event) ([]byte, error) {
	return appendEvent(dst, e, &structKeys)
}

// eventKeys spells an event's JSON form: what goes before each field,
// and whether Kind is its name (quoted) or its number.
type eventKeys struct {
	t, kind, flow, link, a, b, v, end string
	kindName                          bool
}

var (
	lineKeys = eventKeys{`{"e":{"t":`, `,"k":`, `,"f":`, `,"l":`, `,"a":`, `,"b":`, `,"v":`, "}}", true}

	structKeys = eventKeys{`{"T":`, `,"Kind":`, `,"Flow":`, `,"Link":`, `,"A":`, `,"B":`, `,"V":`, "}", false}
)

func appendEvent(dst []byte, e Event, k *eventKeys) ([]byte, error) {
	n := len(dst)
	dst = append(dst, k.t...)
	dst, err := appendFloat(dst, e.T)
	if err != nil {
		return dst[:n], err
	}
	dst = append(dst, k.kind...)
	if k.kindName {
		dst = append(dst, '"')
		dst = append(dst, e.Kind.String()...)
		dst = append(dst, '"')
	} else {
		dst = strconv.AppendUint(dst, uint64(e.Kind), 10)
	}
	dst = append(dst, k.flow...)
	dst = strconv.AppendInt(dst, int64(e.Flow), 10)
	dst = append(dst, k.link...)
	dst = strconv.AppendInt(dst, int64(e.Link), 10)
	dst = append(dst, k.a...)
	dst = strconv.AppendInt(dst, e.A, 10)
	dst = append(dst, k.b...)
	dst = strconv.AppendInt(dst, e.B, 10)
	dst = append(dst, k.v...)
	if dst, err = appendFloat(dst, e.V); err != nil {
		return dst[:n], err
	}
	return append(dst, k.end...), nil
}

// appendMetaLine appends the meta record's JSONL form, without the
// trailing newline: the bytes encoding/json writes for
// jsonlLine{Meta: m}, omitted empty fields included. Its floats go
// through memo. A large fabric's link list makes it the longest line
// of a trace, so spill, when non-nil, is handed the line so far each
// time it passes metaSpill bytes between two links, and returns the
// buffer to go on appending to.
func appendMetaLine(dst []byte, m *Meta, memo *floatMemo, spill func([]byte) []byte) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"meta":{`...)
	sep := false // a field has been written, so the next needs a comma
	key := func(name string) {
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = append(dst, '"')
		dst = append(dst, name...)
		dst = append(dst, `":`...)
	}
	for _, f := range [...]struct{ name, v string }{
		{"topology", m.Topology}, {"scheduler", m.Scheduler}, {"pattern", m.Pattern}, {"engine", m.Engine},
	} {
		if f.v != "" {
			key(f.name)
			dst = appendString(dst, f.v)
		}
	}
	if m.Seed != 0 {
		key("seed")
		dst = strconv.AppendInt(dst, m.Seed, 10)
	}
	var err error
	//dardlint:floateq omitempty's test: encoding/json drops exactly the zeros
	if m.ProbeInterval != 0 {
		key("probe_interval")
		if dst, err = memo.append(dst, m.ProbeInterval); err != nil {
			return dst[:n], err
		}
	}
	if len(m.Links) > 0 {
		key("links")
		dst = append(dst, '[')
		for i := range m.Links {
			l := &m.Links[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			if spill != nil && len(dst) >= metaSpill {
				dst, n = spill(dst), 0
			}
			dst = append(dst, `{"id":`...)
			dst = strconv.AppendInt(dst, int64(l.ID), 10)
			dst = append(dst, `,"from":`...)
			dst = appendString(dst, l.From)
			dst = append(dst, `,"to":`...)
			dst = appendString(dst, l.To)
			dst = append(dst, `,"capacity":`...)
			if dst, err = memo.append(dst, l.Capacity); err != nil {
				return dst[:n], err
			}
			if l.Core {
				dst = append(dst, `,"core":true`...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}}"...), nil
}

// metaSpill is the size at which WriteJSONL writes out a meta line
// still being appended.
const metaSpill = 32 << 10

// appendString appends s as a JSON string the way encoding/json writes
// it. Node names are plain ASCII, copied between quotes; anything
// encoding/json would escape (control bytes, quotes, backslashes, the
// HTML characters <, > and &, and every non-ASCII byte, which may be
// invalid UTF-8 or U+2028/U+2029) goes through json.Marshal itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x80 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendSeriesLine appends one series' JSONL wire form, without the
// trailing newline: the bytes encoding/json writes for
// jsonlLine{Series: &wireSeries{...}}, an empty point list as []. Its
// floats go through memo.
func appendSeriesLine(dst []byte, s *SeriesData, memo *floatMemo) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"s":{"m":"`...)
	dst = append(dst, s.Metric.String()...)
	dst = append(dst, `","ent":`...)
	dst = strconv.AppendInt(dst, s.Entity, 10)
	if s.Dropped != 0 {
		dst = append(dst, `,"dropped":`...)
		dst = strconv.AppendInt(dst, int64(s.Dropped), 10)
	}
	dst = append(dst, `,"p":[`...)
	var err error
	for i, p := range s.Points {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		if dst, err = memo.append(dst, p.T); err != nil {
			return dst[:n], err
		}
		dst = append(dst, ',')
		if dst, err = memo.append(dst, p.V); err != nil {
			return dst[:n], err
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}}"...), nil
}

// appendFloat spells v as encoding/json spells a float64 (ES6 number
// to string): the shortest representation that parses back to the
// same bits, in 'f' format, or 'e' when |v| < 1e-6 or |v| >= 1e21 with
// a one-digit negative exponent unpadded (1e-7, not 1e-07). NaN and
// ±Inf have no JSON spelling; they return json.Marshal's error.
func appendFloat(dst []byte, v float64) ([]byte, error) {
	if math.Float64bits(v) == 0 {
		return append(dst, '0'), nil // +0: most samples of an idle link
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(v), Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	//dardlint:floateq encoding/json's exact cutoffs: zero of either sign stays in 'f'
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// floatMemo remembers how recently written floats were spelled. A probe
// tick samples every link at one time, so the series lines repeat a
// few timestamps thousands of times; a hit copies the spelling instead
// of searching for the shortest digits again. Direct-mapped by the
// top bits of a multiplicative hash of the float's bits.
type floatMemo [256]struct {
	bits uint64
	n    uint8 // spelling length; 0: empty slot
	b    [32]byte
}

// append appends v as appendFloat does.
func (m *floatMemo) append(dst []byte, v float64) ([]byte, error) {
	bits := math.Float64bits(v)
	slot := &m[(bits*0x9e3779b97f4a7c15)>>56]
	if slot.n > 0 && slot.bits == bits {
		return append(dst, slot.b[:slot.n]...), nil
	}
	n := len(dst)
	dst, err := appendFloat(dst, v)
	if err == nil && len(dst)-n <= len(slot.b) {
		slot.bits, slot.n = bits, uint8(copy(slot.b[:], dst[n:]))
	}
	return dst, err
}

// WriteEventsCSV renders the events as CSV with a header row. Floats use
// the shortest exact representation.
func WriteEventsCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "t,kind,flow,link,a,b,v"); err != nil {
		return err
	}
	for _, e := range tr.Events {
		_, err := fmt.Fprintf(bw, "%s,%s,%d,%d,%d,%d,%s\n",
			fmtFloat(e.T), e.Kind, e.Flow, e.Link, e.A, e.B, fmtFloat(e.V))
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSeriesCSV renders every time series as long-format CSV.
func WriteSeriesCSV(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "metric,entity,t,v"); err != nil {
		return err
	}
	for _, s := range tr.Series {
		for _, p := range s.Points {
			_, err := fmt.Fprintf(bw, "%s,%d,%s,%s\n", s.Metric, s.Entity, fmtFloat(p.T), fmtFloat(p.V))
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
