// Package trace is the event-tracing and time-series observability layer
// of the simulators. The paper's headline results are time-resolved —
// bisection bandwidth over time, path-switch convergence, control
// overhead growth — but end-of-run summaries cannot show a run *evolving*.
// This package records two kinds of data while a simulation runs:
//
//   - typed events (flow lifecycle, path switches, link failures, control
//     messages, retransmissions, drops) appended in simulation order, and
//   - probe samples (per-link utilization, queue occupancy, per-flow
//     cwnd/rate, per-monitor minimum BoNF) collected into ring-buffered
//     time series.
//
// The Tracer interface has a no-op implementation (Nop) so instrumented
// call sites cost a nil/branch check when tracing is disabled; the
// buffered Recorder implements the same interface for real runs. Traces
// export to JSONL (lossless round-trip) and CSV, and the Aggregator
// reconstructs the paper's time-resolved curves from a recorded trace.
package trace

import "math"

// Kind classifies an event.
type Kind uint8

// The typed events the simulators emit.
const (
	// KindFlowStart marks a flow arrival: Flow is the workload flow ID,
	// A/B are the source/destination host node IDs, V is the transfer
	// size in bits.
	KindFlowStart Kind = iota + 1
	// KindFlowEnd marks a flow completing: Flow is the flow ID, A the
	// final path index, V the transfer size in bits. Flows cut off at
	// MaxTime never emit it.
	KindFlowEnd
	// KindPathSwitch marks a flow moving between equal-cost paths: Flow
	// is the flow ID, A the old path index, B the new one.
	KindPathSwitch
	// KindLinkFail marks a directed link going down: Link is the link ID.
	KindLinkFail
	// KindLinkRecover marks a directed link coming back up.
	KindLinkRecover
	// KindControlMsg accounts one control-plane exchange: V is the total
	// bytes (queries plus replies).
	KindControlMsg
	// KindRetransmit marks a TCP segment retransmission: Flow is the flow
	// ID, A the segment sequence number.
	KindRetransmit
	// KindDrop marks a drop-tail queue drop: Flow is the flow ID, Link
	// the dropping link, A the segment sequence number (0 for ACKs).
	KindDrop
	// KindFailDrop marks a packet lost to a failed link — either flushed
	// from the queue when the link went down or arriving while it is down:
	// Flow is the flow ID, Link the failed link, A the segment sequence
	// number (0 for ACKs).
	KindFailDrop
	// KindPathDead marks a DARD monitor declaring a path dead (bottleneck
	// capacity collapsed to zero or its switches stopped answering): A is
	// the path index, B the monitor identity (srcHost<<32|dstToR).
	KindPathDead
)

// kindNames is indexed by Kind; the empty slot 0 and anything past the
// table are unknown kinds.
var kindNames = [...]string{
	KindFlowStart:   "FlowStart",
	KindFlowEnd:     "FlowEnd",
	KindPathSwitch:  "PathSwitch",
	KindLinkFail:    "LinkFail",
	KindLinkRecover: "LinkRecover",
	KindControlMsg:  "ControlMsg",
	KindRetransmit:  "Retransmit",
	KindDrop:        "Drop",
	KindFailDrop:    "FailDrop",
	KindPathDead:    "PathDead",
}

// String returns the stable event name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "Unknown"
}

// kindsByName is the reverse of kindNames, built once up front so
// ParseKind is a plain lookup.
var kindsByName = func() map[string]Kind {
	out := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		if n != "" {
			out[n] = Kind(k)
		}
	}
	return out
}()

// ParseKind is the inverse of Kind.String; ok is false for unknown names.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindsByName[name]
	return k, ok
}

// Kinds lists every event kind in declaration order.
func Kinds() []Kind {
	return []Kind{KindFlowStart, KindFlowEnd, KindPathSwitch, KindLinkFail,
		KindLinkRecover, KindControlMsg, KindRetransmit, KindDrop,
		KindFailDrop, KindPathDead}
}

// Event is one structured trace record. The struct is flat and fixed-size
// so emitting one never allocates; the kind gives A, B, and V their
// meaning (see the Kind constants).
type Event struct {
	// T is the simulation timestamp in seconds.
	T float64
	// Kind classifies the event.
	Kind Kind
	// Flow is the workload flow ID, -1 when not flow-scoped.
	Flow int32
	// Link is the directed link ID, -1 when not link-scoped.
	Link int32
	// A and B are kind-specific integers (path indices, sequence
	// numbers, node IDs).
	A, B int64
	// V is the kind-specific value (bytes, bits, sizes).
	V float64
}

// Metric names a probed time series.
type Metric uint8

// The probed metrics.
const (
	// MetricLinkUtil is a link's utilization in [0,1] over the last probe
	// interval; entity is the link ID.
	MetricLinkUtil Metric = iota + 1
	// MetricQueueBits is a link's instantaneous queue occupancy in bits
	// (packet engine); entity is the link ID.
	MetricQueueBits
	// MetricFlowCwnd is a TCP sender's congestion window in segments
	// (packet engine); entity is the flow ID.
	MetricFlowCwnd
	// MetricFlowRate is a flow's max-min rate in bits/s (flow engine);
	// entity is the flow ID.
	MetricFlowRate
	// MetricMinBoNF is the minimum path BoNF a DARD monitor assembled,
	// in bits/s, with "no elephants" clamped to the bottleneck bandwidth;
	// entity is srcHost<<32|dstToR.
	MetricMinBoNF
)

// metricNames is indexed by Metric; the empty slot 0 and anything past
// the table are unknown metrics.
var metricNames = [...]string{
	MetricLinkUtil:  "link_util",
	MetricQueueBits: "queue_bits",
	MetricFlowCwnd:  "flow_cwnd",
	MetricFlowRate:  "flow_rate",
	MetricMinBoNF:   "min_bonf",
}

// String returns the stable metric name used in exports.
func (m Metric) String() string {
	if int(m) < len(metricNames) && metricNames[m] != "" {
		return metricNames[m]
	}
	return "unknown"
}

// metricsByName is the reverse of metricNames, built once up front so
// ParseMetric is a plain lookup.
var metricsByName = func() map[string]Metric {
	out := make(map[string]Metric, len(metricNames))
	for m, n := range metricNames {
		if n != "" {
			out[n] = Metric(m)
		}
	}
	return out
}()

// ParseMetric is the inverse of Metric.String.
func ParseMetric(name string) (Metric, bool) {
	m, ok := metricsByName[name]
	return m, ok
}

// Tracer receives events and probe samples from a running simulation.
// Implementations are used from a single goroutine (each run owns its
// tracer); they must not block.
type Tracer interface {
	// Enabled reports whether emitting is worthwhile; probe loops are not
	// even scheduled when it returns false.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
	// Sample appends one point to the (metric, entity) time series.
	// Non-finite values are dropped (JSON cannot carry them).
	Sample(m Metric, entity int64, t, v float64)
}

// Nop is the disabled tracer: every method is an empty leaf call the
// compiler can see through, so instrumentation costs nothing when off.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Emit implements Tracer.
func (Nop) Emit(Event) {}

// Sample implements Tracer.
func (Nop) Sample(Metric, int64, float64, float64) {}

// OrNop returns t, or Nop when t is nil, so callers can hold a never-nil
// Tracer.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop{}
	}
	return t
}

// finite reports whether v can travel through JSON.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
