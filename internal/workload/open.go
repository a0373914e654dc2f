package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dard/internal/detrand"
	"dard/internal/evq"
	"dard/internal/fpcmp"
	"dard/internal/snap"
)

// OpenPoisson streams Poisson flow arrivals one at a time instead of
// materializing them up front, which is what makes steady-state runs
// possible: the engine pulls the next arrival as it needs it, so the
// stream can be unbounded (Duration <= 0) and the run ends only when it
// is paused or canceled.
//
// Each source host draws inter-arrival gaps and destinations from its
// own substream seeded Seed + host*7919, so the flows produced for host
// h are identical whether the stream is bounded, unbounded, or
// interrupted and resumed. The per-host streams are merged by (arrival
// time, host), the order Generate's stable sort yields, and IDs are
// assigned densely in merge order. The substreams use detrand (a
// serializable generator) rather than math/rand's default source so a
// checkpoint can carry the exact stream positions in a few bytes each.
// The construction mirrors Generate's, but the generator differs, so
// the same Config draws a different workload here than from Generate.
//
//dardsnap:fields encoder=OpenPoisson.SnapshotState decoder=OpenPoisson.RestoreState
type OpenPoisson struct {
	pattern  Pattern //dardlint:snapfield construction parameter; the restored source is built from the same Config
	rate     float64 //dardlint:snapfield construction parameter; the restored source is built from the same Config
	sizeBits float64 //dardlint:snapfield construction parameter; the restored source is built from the same Config
	duration float64 //dardlint:snapfield construction parameter (<= 0 means unbounded); comes from Config, not the snapshot
	seed     int64   //dardlint:snapfield construction parameter; the substream positions are what the snapshot carries

	hosts  []openHost
	heap   evq.Queue[openCand] //dardlint:snapfield rebuilt from the live candidates; layout never reaches the output (rebuildHeap)
	nextID int
}

// openHost is one source host's generator state: its substream and the
// arrival clock the next gap extends.
//
//dardsnap:fields encoder=OpenPoisson.SnapshotState decoder=OpenPoisson.RestoreState
type openHost struct {
	rng *rand.Rand //dardlint:snapfield wraps src; the serializable source position fully determines the stream
	src *detrand.Source
	t   float64
	// cand is the host's materialized next flow (valid when live); a
	// bounded stream retires the host once t crosses the horizon.
	cand openCand
	live bool
}

// openCand is a host's pending arrival: its time and drawn destination.
//
//dardsnap:fields encoder=OpenPoisson.SnapshotState decoder=OpenPoisson.RestoreState
type openCand struct {
	t    float64
	host int //dardlint:snapfield implied by the owning host's index in the stream array; restore re-keys it
	dst  int
}

// NewOpenPoisson builds the streaming source. cfg.Duration bounds the
// arrival window exactly like Generate; zero or negative leaves the
// stream unbounded. The layout and pattern must describe the topology
// the flows will run on.
func NewOpenPoisson(l *Layout, cfg Config) (*OpenPoisson, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: nil pattern")
	}
	if cfg.RatePerHost <= 0 || math.IsInf(cfg.RatePerHost, 0) || math.IsNaN(cfg.RatePerHost) {
		return nil, fmt.Errorf("workload: rate %g must be positive and finite", cfg.RatePerHost)
	}
	if fpcmp.IsZero(cfg.SizeBytes) {
		cfg.SizeBytes = DefaultSizeBytes
	}
	if cfg.SizeBytes < 0 {
		return nil, fmt.Errorf("workload: negative size %g", cfg.SizeBytes)
	}
	if l.NumHosts < 2 {
		return nil, fmt.Errorf("workload: need at least 2 hosts, have %d", l.NumHosts)
	}
	op := &OpenPoisson{
		pattern:  cfg.Pattern,
		rate:     cfg.RatePerHost,
		sizeBits: cfg.SizeBytes * 8,
		duration: cfg.Duration,
		seed:     cfg.Seed,
		hosts:    make([]openHost, l.NumHosts),
	}
	for h := range op.hosts {
		seeded := detrand.NewSeeded(cfg.Seed + int64(h)*7919)
		op.hosts[h] = openHost{rng: rand.New(seeded), src: seeded}
		op.advance(h)
	}
	op.rebuildHeap()
	return op, nil
}

// advance draws host h's next arrival: extend the clock by an
// exponential gap, draw a destination, and skip self-flows exactly like
// Generate. A bounded stream retires the host at the horizon.
func (op *OpenPoisson) advance(h int) {
	hs := &op.hosts[h]
	hs.live = false
	for {
		hs.t += hs.rng.ExpFloat64() / op.rate
		if op.duration > 0 && hs.t >= op.duration {
			return
		}
		dst := op.pattern.PickDst(hs.rng, h)
		if dst == h {
			continue // self-flows are meaningless
		}
		hs.cand = openCand{t: hs.t, host: h, dst: dst}
		hs.live = true
		return
	}
}

// rebuildHeap reconstructs the merge queue from the live candidates,
// keyed (t, host). Queue layout never reaches the output — the key is a
// total order, so the pop sequence is unique — which also means a
// restored stream needs no layout from the snapshot.
func (op *OpenPoisson) rebuildHeap() {
	op.heap = evq.Queue[openCand]{}
	for h := range op.hosts {
		if op.hosts[h].live {
			op.push(op.hosts[h].cand)
		}
	}
}

// push queues a host's candidate at its (t, host) merge key.
func (op *OpenPoisson) push(c openCand) { op.heap.Push(c.t, int64(c.host), c) }

// Peek implements flowsim.ArrivalSource.
func (op *OpenPoisson) Peek() (Flow, bool) {
	if op.heap.Len() == 0 {
		return Flow{}, false
	}
	c := op.heap.Min().Val
	return Flow{
		ID:       op.nextID,
		Src:      c.host,
		Dst:      c.dst,
		SizeBits: op.sizeBits,
		Arrival:  c.t,
	}, true
}

// Next implements flowsim.ArrivalSource.
func (op *OpenPoisson) Next() (Flow, bool) {
	wf, ok := op.Peek()
	if !ok {
		return Flow{}, false
	}
	h := op.heap.Pop().Val.host
	op.advance(h)
	if op.hosts[h].live {
		op.push(op.hosts[h].cand)
	}
	op.nextID++
	return wf, true
}

// SnapshotState implements flowsim.SnapshotArrivalSource: the consumed
// count plus, per host, the substream position and the materialized
// candidate. Hosts are encoded in index order, so identical logical
// states yield identical bytes regardless of heap layout.
func (op *OpenPoisson) SnapshotState(enc *snap.Encoder) {
	enc.I64(int64(op.nextID))
	enc.U32(uint32(len(op.hosts)))
	for h := range op.hosts {
		hs := &op.hosts[h]
		enc.U64(hs.src.State())
		enc.F64(hs.t)
		enc.Bool(hs.live)
		if hs.live {
			enc.F64(hs.cand.t)
			enc.I64(int64(hs.cand.dst))
		}
	}
}

// RestoreState implements flowsim.SnapshotArrivalSource. The source
// must have been constructed with the snapshotted parameters; only the
// stream positions are restored.
func (op *OpenPoisson) RestoreState(dec *snap.Decoder) error {
	nextID := int(dec.I64())
	n := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if nextID < 0 {
		return fmt.Errorf("workload: snapshot arrival count %d negative", nextID)
	}
	if n != len(op.hosts) {
		return fmt.Errorf("workload: snapshot has %d arrival streams, topology has %d hosts", n, len(op.hosts))
	}
	for h := range op.hosts {
		hs := &op.hosts[h]
		hs.src.SetState(dec.U64())
		hs.t = dec.F64()
		hs.live = dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		if hs.t < 0 || math.IsNaN(hs.t) {
			return fmt.Errorf("workload: snapshot stream %d has invalid time %g", h, hs.t)
		}
		if hs.live {
			t := dec.F64()
			dst := int(dec.I64())
			if err := dec.Err(); err != nil {
				return err
			}
			// advance sets a live host's candidate time to its clock.
			if math.Float64bits(t) != math.Float64bits(hs.t) {
				return fmt.Errorf("workload: snapshot stream %d has candidate time %g, stream time %g", h, t, hs.t)
			}
			if dst < 0 || dst >= len(op.hosts) || dst == h {
				return fmt.Errorf("workload: snapshot stream %d has invalid destination %d", h, dst)
			}
			hs.cand = openCand{t: t, host: h, dst: dst}
		} else {
			hs.cand = openCand{}
		}
	}
	op.nextID = nextID
	op.rebuildHeap()
	return nil
}
