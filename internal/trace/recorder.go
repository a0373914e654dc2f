package trace

import "slices"

// LinkMeta snapshots one directed link of the traced topology so
// aggregators can label links and weight utilization by capacity without
// rebuilding the network.
type LinkMeta struct {
	// ID is the directed link ID.
	ID int32 `json:"id"`
	// From and To are the endpoint node names.
	From string `json:"from"`
	To   string `json:"to"`
	// Capacity is the nominal bandwidth in bits/s.
	Capacity float64 `json:"capacity"`
	// Core marks links touching the top tier: the bisection links whose
	// aggregate throughput §4.3.3 compares.
	Core bool `json:"core,omitempty"`
}

// Meta describes the traced run.
type Meta struct {
	// Topology, Scheduler, Pattern, and Engine echo the scenario.
	Topology  string `json:"topology,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Pattern   string `json:"pattern,omitempty"`
	Engine    string `json:"engine,omitempty"`
	// Seed is the run's RNG seed.
	Seed int64 `json:"seed,omitempty"`
	// ProbeInterval is the sampling period in seconds (0: no probes).
	ProbeInterval float64 `json:"probe_interval,omitempty"`
	// Links snapshots the topology's directed links.
	Links []LinkMeta `json:"links,omitempty"`
}

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// SeriesData is one completed time series of a trace: the chronological
// points that survived the ring buffer plus how many were evicted.
type SeriesData struct {
	Metric  Metric
	Entity  int64
	Dropped int
	Points  []Point
}

// Trace is a completed recording: immutable data ready for export or
// aggregation.
type Trace struct {
	Meta   Meta
	Events []Event
	Series []SeriesData
}

// DefaultMaxPoints bounds each probe series when RecorderOptions leaves
// MaxPoints zero. At the default 0.25 s probe period this holds over an
// hour of simulated time per series.
const DefaultMaxPoints = 16384

// RecorderOptions tunes a Recorder.
type RecorderOptions struct {
	// MaxPoints caps every time series' ring buffer (0 means
	// DefaultMaxPoints, negative means unbounded). Events are never
	// capped: their volume is bounded by the workload, not by time.
	MaxPoints int
}

// ring is a point buffer that, once it holds max points, overwrites its
// oldest entry. The cap is the Recorder's, passed in, and the oldest
// point of a full ring sits at dropped % max, so a ring is four words
// plus its points and tables hold rings by value.
type ring struct {
	buf     []Point
	dropped int
}

// push appends p, or overwrites the oldest point once the ring holds max
// (max <= 0: unbounded). The buffer grows by append, not to max up
// front: a flow-rate series exists per flow, and most hold few points.
func (r *ring) push(p Point, max int) {
	if max <= 0 || len(r.buf) < max {
		if r.buf == nil {
			r.buf = make([]Point, 0, firstPoints)
		}
		r.buf = append(r.buf, p)
		return
	}
	r.buf[r.dropped%max] = p
	r.dropped++
}

// firstPoints is a ring's first capacity. A probe tick samples every
// link, so thousands of link series grow in step; starting each at
// eight points instead of one spares them the first three copies to a
// larger buffer.
const firstPoints = 8

// points returns the buffered samples in chronological order: the
// buffer itself, capped, while its oldest point is first, else a copy
// rotated to start there.
func (r *ring) points() []Point {
	n := len(r.buf)
	head := 0
	if r.dropped > 0 {
		head = r.dropped % n
	}
	if head == 0 {
		return r.buf[:n:n]
	}
	out := make([]Point, 0, n)
	out = append(out, r.buf[head:]...)
	return append(out, r.buf[:head]...)
}

// denseEntities bounds the entities a metric's dense table indexes.
// Link and flow IDs sit far below it; entities outside [0,
// denseEntities), such as MinBoNF's srcHost<<32|dstToR, go to the
// table's map.
const denseEntities = 1 << 20

// seriesTable holds one metric's series. dense is indexed by entity and
// grows to the largest one sampled; a ring that never took a point is
// not a series. sparse maps every other entity to its ring.
type seriesTable struct {
	dense  []ring
	sparse map[int64]*ring
}

// Recorder is the buffering Tracer: events append to a slice, samples go
// into per-(metric, entity) ring buffers, kept in one seriesTable per
// metric so that the common sample (a link or flow series) is two slice
// indexings, not a map lookup. A Recorder belongs to exactly one run
// (simulations are single-goroutine); create one per sweep cell.
type Recorder struct {
	meta      Meta
	events    []Event
	tables    []seriesTable // by Metric
	series    int           // rings holding a point
	maxPoints int
}

var _ Tracer = (*Recorder)(nil)

// NewRecorder creates an empty recorder.
func NewRecorder(opts RecorderOptions) *Recorder {
	max := opts.MaxPoints
	if max == 0 {
		max = DefaultMaxPoints
	}
	return &Recorder{maxPoints: max}
}

// SetMeta attaches the run description.
func (r *Recorder) SetMeta(m Meta) { r.meta = m }

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// Sample implements Tracer; non-finite values are dropped.
func (r *Recorder) Sample(m Metric, entity int64, t, v float64) {
	if !finite(v) || !finite(t) {
		return
	}
	if int(m) >= len(r.tables) {
		r.tables = append(r.tables, make([]seriesTable, int(m)+1-len(r.tables))...)
	}
	tab := &r.tables[m]
	var rg *ring
	if entity >= 0 && entity < denseEntities {
		if int(entity) >= len(tab.dense) {
			// Double: probes sample entities in ID order, and append's
			// 1.25x steps for large slices would copy a link table
			// about five times over.
			grown := make([]ring, min(max(int(entity)+1, 2*len(tab.dense), 64), denseEntities))
			copy(grown, tab.dense)
			tab.dense = grown
		}
		rg = &tab.dense[entity]
	} else if rg = tab.sparse[entity]; rg == nil {
		if tab.sparse == nil {
			tab.sparse = make(map[int64]*ring)
		}
		rg = &ring{}
		tab.sparse[entity] = rg
	}
	if len(rg.buf) == 0 {
		r.series++
	}
	rg.push(Point{T: t, V: v}, r.maxPoints)
}

// Events returns the recorded events in emission order. The slice is
// owned by the recorder.
func (r *Recorder) Events() []Event { return r.events }

// Take freezes the recording into a Trace: events in emission order,
// series in (metric, entity) order. Each metric's dense table is
// already in entity order; only its map's entities are sorted, and they
// sit below (negative) or above (>= denseEntities) the dense ones. The
// Trace shares the recorder's event slice and the buffers of series
// that never wrapped, so Take ends the recording: record nothing after
// it.
func (r *Recorder) Take() *Trace {
	tr := &Trace{Meta: r.meta, Events: r.events}
	if r.series > 0 {
		tr.Series = make([]SeriesData, 0, r.series)
	}
	for m := range r.tables {
		tab := &r.tables[m]
		sparse := make([]int64, 0, len(tab.sparse))
		for e := range tab.sparse {
			sparse = append(sparse, e)
		}
		slices.Sort(sparse)
		above, _ := slices.BinarySearch(sparse, 0)
		add := func(e int64, rg *ring) {
			tr.Series = append(tr.Series, SeriesData{
				Metric:  Metric(m),
				Entity:  e,
				Dropped: rg.dropped,
				Points:  rg.points(),
			})
		}
		for _, e := range sparse[:above] {
			add(e, tab.sparse[e])
		}
		for e := range tab.dense {
			if rg := &tab.dense[e]; len(rg.buf) > 0 {
				add(int64(e), rg)
			}
		}
		for _, e := range sparse[above:] {
			add(e, tab.sparse[e])
		}
	}
	return tr
}
