// Package simnet is a discrete-event packet-level network simulator: the
// ns-2 substitute used for the paper's TCP-sensitive experiments (testbed
// CDFs, TeXCP reordering and retransmission comparisons). Links model
// serialization at line rate, propagation delay, and finite drop-tail
// queues; packets carry explicit source routes, matching the paper's
// simulator ("we use source routing to assign a path to a flow", §3.2).
package simnet

import (
	"dard/internal/evq"
	"dard/internal/topology"
)

// eventKind selects how the kernel dispatches an event.
type eventKind uint8

const (
	// evCall runs a callback scheduled with After.
	evCall eventKind = iota
	// evTxDone ends the serialization of pkt on link.
	evTxDone
	// evArrive lands pkt at the far end of the link it was crossing.
	evArrive
	// evDeliver hands a same-host pkt to the deliver callback.
	evDeliver
)

// event is one scheduled action. Packet forwarding uses typed records so
// the hot path schedules no closures; everything else is an evCall.
type event struct {
	fn   func()
	pkt  *Packet
	link topology.LinkID
	kind eventKind
}

// Timer is a handle to an event scheduled with After.
type Timer struct {
	k *Kernel
	h evq.Handle
}

// Cancel takes the event out of the queue; safe to call repeatedly or on
// an already-fired timer.
func (t Timer) Cancel() {
	if t.k != nil {
		t.k.q.Remove(t.h)
	}
}

// Reset re-keys a pending timer to fire d seconds from now. It takes the
// next sequence number exactly as a fresh After would, so resetting in
// place orders events the same as canceling and re-arming. It reports
// false, doing nothing, once the timer has fired or been canceled.
func (t Timer) Reset(d float64) bool {
	if t.k == nil || !t.k.q.Live(t.h) {
		return false
	}
	k := t.k
	if d < 0 {
		d = 0
	}
	k.seq++
	return k.q.Rekey(t.h, k.now+d, k.seq)
}

// Kernel is the event loop. The zero value is ready to use for
// callbacks; packet events need the Net that owns the kernel.
type Kernel struct {
	now float64
	seq int64
	q   evq.Queue[event]
	net *Net
}

// Now returns the current simulation time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// After schedules fn to run d seconds from now and returns a cancellable
// handle. Events fire in (time, scheduling order).
func (k *Kernel) After(d float64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	k.seq++
	return Timer{k: k, h: k.q.PushHandle(k.now+d, k.seq, event{fn: fn})}
}

// schedule queues a typed packet event d seconds from now, taking the
// next sequence number like After.
func (k *Kernel) schedule(d float64, kind eventKind, l topology.LinkID, p *Packet) {
	k.seq++
	k.q.Push(k.now+d, k.seq, event{pkt: p, link: l, kind: kind})
}

// dispatch runs one popped event.
func (k *Kernel) dispatch(ev *event) {
	switch ev.kind {
	case evCall:
		ev.fn()
	case evTxDone:
		k.net.txDone(ev.link, ev.pkt)
	case evArrive:
		k.net.arrive(ev.pkt)
	case evDeliver:
		k.net.deliverAndFree(ev.pkt)
	}
}

// Step runs the next pending event; it reports false when none remain.
func (k *Kernel) Step() bool {
	if k.q.Len() == 0 {
		return false
	}
	it := k.q.Pop()
	k.now = it.At
	k.dispatch(&it.Val)
	return true
}

// Run processes events until the queue drains or time would exceed until.
func (k *Kernel) Run(until float64) {
	for k.q.Len() > 0 && k.q.Min().At <= until {
		it := k.q.Pop()
		k.now = it.At
		k.dispatch(&it.Val)
	}
}

// Pending reports the number of queued events; canceled events leave the
// queue at once and are not counted.
func (k *Kernel) Pending() int { return k.q.Len() }
