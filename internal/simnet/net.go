package simnet

import (
	"fmt"

	"dard/internal/topology"
	"dard/internal/trace"
)

// Packet is one simulated packet travelling a source route.
type Packet struct {
	// FlowID identifies the transport connection.
	FlowID int
	// Seq is the segment number for data packets.
	Seq int
	// Ack marks an acknowledgment; AckNum is the cumulative ACK.
	Ack    bool
	AckNum int
	// SizeBits is the wire size including headers.
	SizeBits float64
	// Route is the full host-to-host source route; Hop indexes the link
	// currently being traversed.
	Route []topology.LinkID
	Hop   int
	// Retx marks a retransmitted segment (for Figure 14's metric).
	Retx bool

	// ev is the kind of the packet's one pending kernel event.
	ev eventKind
}

// DefaultBufferPackets sizes each link queue when the config leaves it
// zero; the paper sets queues to the delay-bandwidth product, which for
// 1 Gbps and datacenter RTTs is of this order.
const DefaultBufferPackets = 64

// linkState is a link's transmitter and drop-tail queue.
type linkState struct {
	rate    float64 // bits/s
	delay   float64 // seconds
	bufBits float64 // queue capacity in bits

	queueBits float64
	queue     pktRing
	busy      bool

	// BitsSent accumulates transmitted bits (utilization accounting for
	// TeXCP probes).
	bitsSent float64
	drops    int64

	// down marks a failed link: arriving packets are dropped and the
	// queue was flushed when the failure hit. failDrops counts both.
	down      bool
	failDrops int64
}

// pktRing is a link's FIFO of queued packets: a ring buffer whose
// power-of-two capacity grows on demand and is then reused, so steady
// queueing allocates nothing.
type pktRing struct {
	buf  []*Packet
	head int
	n    int
}

func (r *pktRing) push(p *Packet) {
	if r.n == len(r.buf) {
		nb := make([]*Packet, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *pktRing) pop() *Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Net couples a kernel with a topology's links and delivers packets to
// per-flow endpoints.
//
// The net owns every packet from Send until the deliver callback returns
// or the packet is dropped, and then recycles it for a later NewPacket.
// Deliver callbacks must therefore not keep the *Packet (or hand it to
// Send again); copy the fields they need.
type Net struct {
	K    *Kernel
	topo topology.Network
	g    *topology.Graph

	links []linkState
	// deliver routes a packet that reached the end of its source route.
	deliver func(*Packet)
	// free holds recycled packets for NewPacket.
	free []*Packet
	// tracer observes queue drops; never nil (Nop by default).
	tracer trace.Tracer

	// PacketHeaderBits is added to every transmitted segment; 40 bytes
	// of TCP/IP header by default.
	PacketHeaderBits float64
}

// NewNet builds the packet-level runtime for a topology. bufferPackets
// sizes every queue in maximum-size packets (0 means
// DefaultBufferPackets); deliver receives packets that completed their
// route and must not keep them (see Net).
func NewNet(topo topology.Network, bufferPackets int, mtuBits float64, deliver func(*Packet)) (*Net, error) {
	if topo == nil {
		return nil, fmt.Errorf("simnet: nil topology")
	}
	if deliver == nil {
		return nil, fmt.Errorf("simnet: nil deliver callback")
	}
	if bufferPackets <= 0 {
		bufferPackets = DefaultBufferPackets
	}
	if mtuBits <= 0 {
		mtuBits = 1500 * 8
	}
	g := topo.Graph()
	n := &Net{
		K:                &Kernel{},
		topo:             topo,
		g:                g,
		links:            make([]linkState, g.NumLinks()),
		deliver:          deliver,
		tracer:           trace.Nop{},
		PacketHeaderBits: 40 * 8,
	}
	n.K.net = n
	for i := range n.links {
		l := g.Link(topology.LinkID(i))
		n.links[i] = linkState{
			rate:    l.Capacity,
			delay:   l.Delay,
			bufBits: float64(bufferPackets) * mtuBits,
		}
	}
	return n, nil
}

// Topology returns the underlying network.
func (n *Net) Topology() topology.Network { return n.topo }

// SetTracer installs an event tracer; nil restores the no-op default.
func (n *Net) SetTracer(t trace.Tracer) { n.tracer = trace.OrNop(t) }

// NewPacket returns a zeroed packet, recycled when one is free. Fill it
// in and hand it to Send.
func (n *Net) NewPacket() *Packet {
	if k := len(n.free); k > 0 {
		p := n.free[k-1]
		n.free = n.free[:k-1]
		return p
	}
	return new(Packet)
}

// release recycles a packet the net is done with.
func (n *Net) release(p *Packet) {
	*p = Packet{}
	n.free = append(n.free, p)
}

// Send injects a packet at the head of its route. The net takes
// ownership of p (see Net).
func (n *Net) Send(p *Packet) {
	if len(p.Route) == 0 {
		// Degenerate same-host delivery.
		n.K.schedule(0, evDeliver, p)
		return
	}
	p.Hop = 0
	n.enqueue(p)
}

// enqueue places the packet on its current link's queue, dropping it if
// the link is down or the drop-tail buffer is full.
func (n *Net) enqueue(p *Packet) {
	l := p.Route[p.Hop]
	ls := &n.links[l]
	if ls.down {
		n.failDrop(l, p)
		n.release(p)
		return
	}
	if ls.queueBits+p.SizeBits > ls.bufBits {
		ls.drops++
		if n.tracer.Enabled() {
			n.tracer.Emit(trace.Event{
				T: n.K.Now(), Kind: trace.KindDrop,
				Flow: int32(p.FlowID), Link: int32(l), A: int64(p.Seq),
			})
		}
		n.release(p)
		return // drop-tail
	}
	ls.queue.push(p)
	ls.queueBits += p.SizeBits
	if !ls.busy {
		n.transmitNext(l)
	}
}

// transmitNext serializes the head-of-line packet of a link.
func (n *Net) transmitNext(l topology.LinkID) {
	ls := &n.links[l]
	if ls.queue.n == 0 {
		ls.busy = false
		return
	}
	ls.busy = true
	p := ls.queue.pop()
	ls.queueBits -= p.SizeBits
	ls.bitsSent += p.SizeBits
	n.K.schedule(p.SizeBits/ls.rate, evTxDone, p)
}

// txDone ends p's serialization on l: start the next queued packet, then
// propagate this one. The order fixes both events' sequence numbers.
func (n *Net) txDone(l topology.LinkID, p *Packet) {
	n.transmitNext(l)
	n.K.schedule(n.links[l].delay, evArrive, p)
}

// arrive advances the packet one hop or delivers it.
func (n *Net) arrive(p *Packet) {
	p.Hop++
	if p.Hop >= len(p.Route) {
		n.deliverAndFree(p)
		return
	}
	n.enqueue(p)
}

// deliverAndFree hands p to the deliver callback and recycles it.
func (n *Net) deliverAndFree(p *Packet) {
	n.deliver(p)
	n.release(p)
}

// failDrop loses a packet to a failed link and traces the loss with its
// own cause so recovery analysis can tell blackout losses from
// congestion drops.
func (n *Net) failDrop(l topology.LinkID, p *Packet) {
	n.links[l].failDrops++
	if n.tracer.Enabled() {
		n.tracer.Emit(trace.Event{
			T: n.K.Now(), Kind: trace.KindFailDrop,
			Flow: int32(p.FlowID), Link: int32(l), A: int64(p.Seq),
		})
	}
}

// SetLinkDown fails or repairs a directed link immediately. Failing a
// link flushes its queue deterministically, in FIFO order — every queued
// packet is lost and traced as a FailDrop — and drops all later arrivals
// until the link is repaired. A packet already serializing when the
// failure hits was committed before the cut and escapes onto the wire
// (packet-boundary failure semantics); repairing restores the nominal
// rate with an empty queue. This is the data plane only: the link's
// effective capacity and its LinkFail/LinkRecover trace events are
// sched.Core's.
func (n *Net) SetLinkDown(l topology.LinkID, down bool) {
	ls := &n.links[l]
	if ls.down == down {
		return
	}
	ls.down = down
	if down {
		for ls.queue.n > 0 {
			p := ls.queue.pop()
			n.failDrop(l, p)
			n.release(p)
		}
		ls.queueBits = 0
	}
}

// FailDrops reports the packets a link has lost to failure so far
// (flushed on link-down plus arrivals while down).
func (n *Net) FailDrops(l topology.LinkID) int64 { return n.links[l].failDrops }

// Drops reports the packets dropped at a link's queue so far.
func (n *Net) Drops(l topology.LinkID) int64 { return n.links[l].drops }

// BitsSent reports the bits a link has transmitted so far (monotone
// counter; TeXCP probes sample it to estimate utilization).
func (n *Net) BitsSent(l topology.LinkID) float64 { return n.links[l].bitsSent }

// QueueBits reports the bits currently queued at a link.
func (n *Net) QueueBits(l topology.LinkID) float64 { return n.links[l].queueBits }
