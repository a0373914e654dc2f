// Package tcp implements TCP New Reno endpoints over the simnet
// packet-level simulator: slow start, congestion avoidance, fast
// retransmit on three duplicate ACKs, New Reno fast recovery with partial
// ACKs, and an RTO estimator with exponential backoff. The paper's ns-2
// simulations use TCP New Reno for all elephant transfers (§3.2); the
// per-flow retransmission counters feed Figure 14's metric.
package tcp

import (
	"fmt"
	"math"

	"dard/internal/fpcmp"
	"dard/internal/simnet"
	"dard/internal/topology"
	"dard/internal/trace"
)

// Options tunes a connection. The zero value gives standard defaults:
// 1460-byte MSS, 40-byte headers, initial cwnd of 2 segments, and the
// conventional 200 ms minimum RTO (a smaller floor sits below the
// queueing RTT of a congested path and livelocks the sender in spurious
// timeouts).
type Options struct {
	// MSSBytes is the maximum segment payload.
	MSSBytes float64
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd float64
	// InitialSsthresh is the initial slow-start threshold in segments.
	InitialSsthresh float64
	// MaxCwndSegs caps the congestion window (the receiver's advertised
	// window); bounds NewReno's recovery inflation.
	MaxCwndSegs float64
	// MinRTO floors the retransmission timeout (seconds).
	MinRTO float64
	// MaxRTO caps the backed-off retransmission timeout (seconds).
	MaxRTO float64
}

// DefaultMSSBytes is the segment payload Options.MSSBytes defaults to.
const DefaultMSSBytes = 1460

func (o *Options) applyDefaults() {
	if o.MSSBytes <= 0 {
		o.MSSBytes = DefaultMSSBytes
	}
	if o.InitialCwnd <= 0 {
		o.InitialCwnd = 2
	}
	if o.InitialSsthresh <= 0 {
		o.InitialSsthresh = 1 << 20
	}
	if o.MaxCwndSegs <= 0 {
		o.MaxCwndSegs = 256
	}
	if o.MinRTO <= 0 {
		o.MinRTO = 0.2
	}
	if o.MaxRTO <= 0 {
		o.MaxRTO = 2.0
	}
}

// Conn is one TCP New Reno transfer: the sender and receiver endpoints of
// a single flow, folded together (the simulator delivers data packets to
// the receiver half and ACKs to the sender half).
type Conn struct {
	net  *simnet.Net
	g    *topology.Graph
	id   int
	opts Options

	route   []topology.LinkID
	mssBits float64
	hdrBits float64

	totalSegs int

	// Sender state.
	cwnd       float64
	ssthresh   float64
	nextSeq    int
	sndUna     int
	dupAcks    int
	inRecovery bool
	recover    int

	srtt, rttvar, rto float64
	rttSeq            int
	rttSentAt         float64
	rttPending        bool
	rtoTimer          simnet.Timer
	rtoArmed          bool

	// Receiver state. received holds only out-of-order segments.
	received map[int]bool
	rcvNext  int
	// ackRoute is the reverse of ackFor, the data route it was last
	// built from; consecutive segments on one route share it.
	ackFor, ackRoute []topology.LinkID

	// RoutePicker, when set, chooses the route of every outgoing data
	// packet (per-packet load balancing, e.g. TeXCP). When nil the
	// connection's current route is used for every packet.
	RoutePicker func() []topology.LinkID

	// Tracer, when set, receives a Retransmit event for every
	// retransmitted segment. Nil means no tracing.
	Tracer trace.Tracer

	// Stats.
	Retx      int
	started   bool
	done      bool
	StartTime float64
	EndTime   float64
	onDone    func(*Conn)

	// PathSwitches counts SetRoute calls that changed the route.
	PathSwitches int

	// debugTrace, when set, receives congestion events (testing aid).
	debugTrace func(id int, now float64, event string, a, b int)
}

// NewConn creates a transfer of sizeBits from the source to the
// destination of the given initial route. onDone fires once when the last
// byte is acknowledged.
func NewConn(net *simnet.Net, id int, route []topology.LinkID, sizeBits float64, opts Options, onDone func(*Conn)) (*Conn, error) {
	if net == nil {
		return nil, fmt.Errorf("tcp: nil net")
	}
	if sizeBits <= 0 {
		return nil, fmt.Errorf("tcp: non-positive transfer size %g", sizeBits)
	}
	opts.applyDefaults()
	c := &Conn{
		net:      net,
		g:        net.Topology().Graph(),
		id:       id,
		opts:     opts,
		route:    route,
		mssBits:  opts.MSSBytes * 8,
		hdrBits:  net.PacketHeaderBits,
		cwnd:     opts.InitialCwnd,
		ssthresh: opts.InitialSsthresh,
		rto:      0.2,
		received: make(map[int]bool),
		onDone:   onDone,
	}
	c.totalSegs = int(math.Ceil(sizeBits / c.mssBits))
	return c, nil
}

// ID returns the flow ID.
func (c *Conn) ID() int { return c.id }

// Done reports whether the transfer completed.
func (c *Conn) Done() bool { return c.done }

// TotalSegs reports the number of unique segments in the transfer.
func (c *Conn) TotalSegs() int { return c.totalSegs }

// RetxRate is Figure 14's metric: retransmitted over unique packets.
func (c *Conn) RetxRate() float64 { return float64(c.Retx) / float64(c.totalSegs) }

// TransferTime returns EndTime-StartTime once done.
func (c *Conn) TransferTime() float64 {
	if !c.done {
		return math.NaN()
	}
	return c.EndTime - c.StartTime
}

// Route returns the current data route.
func (c *Conn) Route() []topology.LinkID { return c.route }

// SetRoute switches the connection onto a new source route; future
// packets (including retransmissions) use it. In-flight packets continue
// on the old route, which is what reorders segments after a DARD path
// shift.
func (c *Conn) SetRoute(route []topology.LinkID) {
	if linksEqual(c.route, route) {
		return
	}
	c.route = route
	if c.started && !c.done {
		c.PathSwitches++
	}
}

func linksEqual(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Start begins transmitting at the current simulation time.
func (c *Conn) Start() {
	c.started = true
	c.StartTime = c.net.K.Now()
	c.sendAvailable()
}

func (c *Conn) flight() int { return c.nextSeq - c.sndUna }

// sendAvailable transmits new segments while the congestion window has
// room.
func (c *Conn) sendAvailable() {
	for c.nextSeq < c.totalSegs && float64(c.flight()) < c.cwnd {
		c.sendSegment(c.nextSeq, false)
		c.nextSeq++
	}
	if c.flight() > 0 {
		c.armRTO()
	}
}

// sendSegment emits one data segment; retx marks retransmissions.
func (c *Conn) sendSegment(seq int, retx bool) {
	route := c.route
	if c.RoutePicker != nil {
		route = c.RoutePicker()
	}
	if retx {
		c.Retx++
		if c.Tracer != nil && c.Tracer.Enabled() {
			c.Tracer.Emit(trace.Event{
				T: c.net.K.Now(), Kind: trace.KindRetransmit,
				Flow: int32(c.id), Link: -1, A: int64(seq),
			})
		}
	} else if !c.rttPending {
		// Karn's algorithm: only time segments sent once.
		c.rttPending = true
		c.rttSeq = seq
		c.rttSentAt = c.net.K.Now()
	}
	p := c.net.NewPacket()
	p.FlowID = c.id
	p.Seq = seq
	p.SizeBits = c.mssBits + c.hdrBits
	p.Route = route
	p.Retx = retx
	c.net.Send(p)
}

// Deliver dispatches a packet of this flow to the right endpoint half.
func (c *Conn) Deliver(p *simnet.Packet) {
	if p.Ack {
		c.onAck(p.AckNum)
	} else {
		c.onData(p)
	}
}

// onData is the receiver: advance the cumulative pointer past an
// in-order segment and any held segments it uncovers, hold an
// out-of-order one, and acknowledge every arrival (no delayed ACKs, as
// in the paper's ns-2 setup).
func (c *Conn) onData(p *simnet.Packet) {
	switch {
	case p.Seq == c.rcvNext:
		c.rcvNext++
		for c.received[c.rcvNext] {
			delete(c.received, c.rcvNext)
			c.rcvNext++
		}
	case p.Seq > c.rcvNext:
		c.received[p.Seq] = true
	}
	// ACK travels the reverse of the data packet's actual route. Routes
	// are never modified once built, so a segment on the same backing
	// array as the last one reuses its reverse; a new route gets a new
	// slice, since ACKs in flight still hold the old one.
	if len(p.Route) == 0 || len(p.Route) != len(c.ackFor) || &p.Route[0] != &c.ackFor[0] {
		rev := make([]topology.LinkID, 0, len(p.Route))
		for i := len(p.Route) - 1; i >= 0; i-- {
			rev = append(rev, c.g.Reverse(p.Route[i]))
		}
		c.ackFor, c.ackRoute = p.Route, rev
	}
	ack := c.net.NewPacket()
	ack.FlowID = c.id
	ack.Ack = true
	ack.AckNum = c.rcvNext
	ack.SizeBits = c.hdrBits
	ack.Route = c.ackRoute
	c.net.Send(ack)
}

// onAck is the sender's New Reno ACK processing.
func (c *Conn) onAck(ack int) {
	if c.done {
		return
	}
	switch {
	case ack > c.sndUna:
		newly := ack - c.sndUna
		c.sndUna = ack
		if c.rttPending && ack > c.rttSeq {
			c.sampleRTT(c.net.K.Now() - c.rttSentAt)
			c.rttPending = false
		}
		if c.inRecovery {
			if ack > c.recover {
				// Full ACK: leave fast recovery.
				c.inRecovery = false
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			} else {
				// Partial ACK: retransmit the next hole, deflate.
				c.sendSegment(c.sndUna, true)
				c.cwnd = math.Max(c.cwnd-float64(newly)+1, 1)
			}
		} else {
			c.dupAcks = 0
			if c.cwnd < c.ssthresh {
				c.cwnd += float64(newly) // slow start
			} else {
				c.cwnd += float64(newly) / c.cwnd // congestion avoidance
			}
			c.cwnd = math.Min(c.cwnd, c.opts.MaxCwndSegs)
		}
		if c.sndUna >= c.totalSegs {
			c.finish()
			return
		}
		c.armRTO()
		c.sendAvailable()

	case ack == c.sndUna:
		if c.inRecovery {
			// Window inflation per duplicate, bounded by the receive
			// window so long recoveries cannot pump the flight
			// arbitrarily high.
			c.cwnd = math.Min(c.cwnd+1, c.opts.MaxCwndSegs)
			c.sendAvailable()
			return
		}
		c.dupAcks++
		if c.dupAcks == 3 {
			if c.debugTrace != nil {
				c.debugTrace(c.id, c.net.K.Now(), "FRTX", c.sndUna, c.nextSeq)
			}
			// Fast retransmit.
			c.ssthresh = math.Max(float64(c.flight())/2, 2)
			c.cwnd = c.ssthresh + 3
			c.inRecovery = true
			c.recover = c.nextSeq
			c.sendSegment(c.sndUna, true)
		}
	}
}

func (c *Conn) sampleRTT(sample float64) {
	if fpcmp.IsZero(c.srtt) {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		const alpha, beta = 0.125, 0.25
		diff := math.Abs(c.srtt - sample)
		c.rttvar = (1-beta)*c.rttvar + beta*diff
		c.srtt = (1-alpha)*c.srtt + alpha*sample
	}
	c.rto = math.Min(math.Max(c.srtt+4*c.rttvar, c.opts.MinRTO), c.opts.MaxRTO)
}

// armRTO (re)starts the retransmission timer. An armed timer is re-keyed
// in place, which orders events exactly like canceling it and scheduling
// a fresh one.
func (c *Conn) armRTO() {
	if !c.rtoArmed || !c.rtoTimer.Reset(c.rto) {
		c.rtoTimer = c.net.K.After(c.rto, c.onRTO)
	}
	c.rtoArmed = true
}

// onRTO is the retransmission timeout: collapse to a one-segment window,
// retransmit the first hole, and enter recovery so that every subsequent
// partial ACK clocks out the next hole. Segments the receiver already
// buffered are never resent: cumulative ACKs absorb them.
func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.done || c.flight() <= 0 {
		return
	}
	if c.debugTrace != nil {
		c.debugTrace(c.id, c.net.K.Now(), "RTO", c.sndUna, c.nextSeq)
	}
	c.ssthresh = math.Max(float64(c.flight())/2, 2)
	c.cwnd = 1
	c.inRecovery = true
	c.recover = c.nextSeq
	c.dupAcks = 0
	c.rttPending = false
	c.rto = math.Min(c.rto*2, c.opts.MaxRTO)
	c.sendSegment(c.sndUna, true)
	c.armRTO()
}

func (c *Conn) finish() {
	c.done = true
	c.EndTime = c.net.K.Now()
	if c.rtoArmed {
		c.rtoTimer.Cancel()
		c.rtoArmed = false
	}
	if c.onDone != nil {
		c.onDone(c)
	}
}

// State is a diagnostic snapshot of the sender.
type State struct {
	Cwnd       float64
	Ssthresh   float64
	SndUna     int
	NextSeq    int
	DupAcks    int
	InRecovery bool
	RTO        float64
	RTOArmed   bool
}

// State returns a diagnostic snapshot of the sender's congestion control.
func (c *Conn) State() State {
	return State{
		Cwnd:       c.cwnd,
		Ssthresh:   c.ssthresh,
		SndUna:     c.sndUna,
		NextSeq:    c.nextSeq,
		DupAcks:    c.dupAcks,
		InRecovery: c.inRecovery,
		RTO:        c.rto,
		RTOArmed:   c.rtoArmed,
	}
}

// Dispatcher routes delivered packets to their connections; install its
// Deliver method as the simnet deliver callback.
type Dispatcher struct {
	conns map[int]*Conn
}

// NewDispatcher creates an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{conns: make(map[int]*Conn)}
}

// Register adds a connection.
func (d *Dispatcher) Register(c *Conn) { d.conns[c.id] = c }

// Deliver implements the simnet callback.
func (d *Dispatcher) Deliver(p *simnet.Packet) {
	if c, ok := d.conns[p.FlowID]; ok {
		c.Deliver(p)
	}
}

// Conn returns a registered connection.
func (d *Dispatcher) Conn(id int) (*Conn, bool) {
	c, ok := d.conns[id]
	return c, ok
}
