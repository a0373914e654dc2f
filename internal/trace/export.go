package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The JSONL layout: line 1 carries the meta record, then one line per
// event in emission order, then one line per series in (metric, entity)
// order. encoding/json prints float64 with the shortest representation
// that parses back to the same bits, so WriteJSONL → ReadJSONL is a
// lossless round trip; the exporter tests assert deep equality.

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
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlLine{Meta: &tr.Meta}); err != nil {
		return err
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		we := wireEvent{T: e.T, Kind: e.Kind.String(), Flow: e.Flow, Link: e.Link, A: e.A, B: e.B, V: e.V}
		if err := enc.Encode(jsonlLine{Event: &we}); err != nil {
			return err
		}
	}
	for i := range tr.Series {
		s := &tr.Series[i]
		ws := wireSeries{Metric: s.Metric.String(), Entity: s.Entity, Dropped: s.Dropped,
			Points: make([][2]float64, len(s.Points))}
		for j, p := range s.Points {
			ws.Points[j] = [2]float64{p.T, p.V}
		}
		if err := enc.Encode(jsonlLine{Series: &ws}); err != nil {
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

// MarshalEventLine returns one event's single-line JSON wire form — the
// same shape WriteJSONL emits per event, without the trailing newline.
// The serving layer's live NDJSON stream uses it so streamed lines and
// exported trace files parse identically.
func MarshalEventLine(e Event) ([]byte, error) {
	we := wireEvent{T: e.T, Kind: e.Kind.String(), Flow: e.Flow, Link: e.Link, A: e.A, B: e.B, V: e.V}
	return json.Marshal(jsonlLine{Event: &we})
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
