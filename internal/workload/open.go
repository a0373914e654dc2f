package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dard/internal/detrand"
	"dard/internal/evq"
	"dard/internal/fpcmp"
)

// OpenPoisson streams the paper's Poisson flow arrivals one at a time,
// in arrival order. It is the one generator, and a Source: each engine
// pulls from it as it runs, so the stream can be unbounded (Duration <=
// 0) for a run that ends only at its time limit or when it is paused or
// canceled.
//
// Source host h draws its inter-arrival gaps and destinations from
// math/rand's stream for Seed + h*7919 (detrand.Std), so the flows host
// h produces are the same whether the stream is bounded or not. The
// hosts' streams are merged by (arrival time, host), and IDs are
// assigned densely in merge order. A stream rebuilt from the same
// Config and advanced n times stands where the original stood after n
// flows, which is how checkpoints restore it.
type OpenPoisson struct {
	pattern  Pattern
	rate     float64
	sizeBits float64
	duration float64 // <= 0 means unbounded

	// seeded is the stream of the host being advanced and rng draws
	// from it: rand.Rand keeps no state of its own for the draws a
	// Pattern may make, so one serves every host in turn.
	seeded detrand.Std
	rng    *rand.Rand
	// heap holds each live host's pending flow keyed (arrival, host);
	// a bounded stream retires a host once its clock crosses the
	// horizon, so only hosts with flows left take an entry.
	heap   evq.Queue[openHost]
	nextID int
}

// openHost is a live host's stream, positioned after its pending flow,
// and that flow's destination.
type openHost struct {
	src detrand.Std
	dst int
}

// NewOpenPoisson builds the streaming source. A positive cfg.Duration
// bounds the arrival window; zero or negative leaves the stream
// unbounded. The layout and pattern must describe the topology the
// flows will run on.
func NewOpenPoisson(l *Layout, cfg Config) (*OpenPoisson, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: nil pattern")
	}
	if cfg.RatePerHost <= 0 {
		return nil, fmt.Errorf("workload: rate %g must be positive", cfg.RatePerHost)
	}
	// A NaN or infinite rate or window never ends a host's arrival clock.
	if math.IsNaN(cfg.RatePerHost) || math.IsInf(cfg.RatePerHost, 0) || math.IsNaN(cfg.Duration) || math.IsInf(cfg.Duration, 0) {
		return nil, fmt.Errorf("workload: rate %g and duration %g must be finite", cfg.RatePerHost, cfg.Duration)
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
	}
	op.rng = rand.New(&op.seeded)
	for h := 0; h < l.NumHosts; h++ {
		op.seeded.Seed(cfg.Seed + int64(h)*7919)
		if err := op.advance(h, 0); err != nil {
			return nil, err
		}
	}
	return op, nil
}

// maxSelfDraws bounds how many destinations in a row a host may draw
// equal to itself before the stream gives up on it. Patterns promise a
// destination other than the source, so a valid run never comes near
// it; a pattern that can only return the source (Stride with a Step
// that is a multiple of N) would otherwise spin for ever.
const maxSelfDraws = 1 << 20

// SelfDrawError reports a host whose pattern drew only the host itself
// maxSelfDraws times in a row.
type SelfDrawError struct {
	Host    int
	Pattern string
}

func (e *SelfDrawError) Error() string {
	return fmt.Sprintf("workload: pattern %s drew host %d as its own destination %d times in a row", e.Pattern, e.Host, maxSelfDraws)
}

// advance draws host h's next flow after time t from op.seeded and
// queues it: extend the clock by an exponential gap, draw a
// destination, and skip self-flows. A bounded stream retires the host
// at the horizon, and a host that draws itself maxSelfDraws times in a
// row is retired with a SelfDrawError.
func (op *OpenPoisson) advance(h int, t float64) error {
	for self := 0; ; {
		t += op.rng.ExpFloat64() / op.rate
		if op.duration > 0 && t >= op.duration {
			return nil
		}
		dst := op.pattern.PickDst(op.rng, h)
		if dst == h {
			// Self-flows are meaningless.
			if self++; self >= maxSelfDraws {
				return &SelfDrawError{Host: h, Pattern: op.pattern.Name()}
			}
			continue
		}
		op.heap.Push(t, int64(h), openHost{src: op.seeded, dst: dst})
		return nil
	}
}

// Peek implements Source.
func (op *OpenPoisson) Peek() (Flow, bool) {
	if op.heap.Len() == 0 {
		return Flow{}, false
	}
	it := op.heap.Min()
	return op.flow(it), true
}

// Next implements Source.
func (op *OpenPoisson) Next() (Flow, bool) {
	if op.heap.Len() == 0 {
		return Flow{}, false
	}
	it := op.heap.Pop()
	wf := op.flow(&it)
	op.seeded = it.Val.src
	// NewOpenPoisson refused a pattern that self-draws from a host's
	// first flow on; one that starts later only retires the host.
	_ = op.advance(wf.Src, wf.Arrival)
	op.nextID++
	return wf, true
}

// flow is the Flow a queued entry stands for.
func (op *OpenPoisson) flow(it *evq.Item[openHost]) Flow {
	return Flow{
		ID:       op.nextID,
		Src:      int(it.Seq),
		Dst:      it.Val.dst,
		SizeBits: op.sizeBits,
		Arrival:  it.At,
	}
}
