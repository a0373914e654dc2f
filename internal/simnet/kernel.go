// Package simnet is a discrete-event packet-level network simulator: the
// ns-2 substitute used for the paper's TCP-sensitive experiments (testbed
// CDFs, TeXCP reordering and retransmission comparisons). Links model
// serialization at line rate, propagation delay, and finite drop-tail
// queues; packets carry explicit source routes, matching the paper's
// simulator ("we use source routing to assign a path to a flow", §3.2).
package simnet

import "dard/internal/evq"

// eventKind selects how the kernel dispatches a packet's pending event.
// A packet has at most one event pending — it is serializing, in flight
// or being delivered — so the kind rides on the Packet.
type eventKind uint8

const (
	// evTxDone ends the serialization of the packet on the link it is
	// crossing, p.Route[p.Hop].
	evTxDone eventKind = iota
	// evArrive lands the packet at the far end of that link.
	evArrive
	// evDeliver hands a same-host packet to the deliver callback.
	evDeliver
)

// Timer is a handle to an event scheduled with After.
type Timer struct {
	k *Kernel
	h evq.Handle
}

// Cancel takes the event out of the queue; safe to call repeatedly or on
// an already-fired timer.
func (t Timer) Cancel() {
	if t.k != nil {
		t.k.calls.Remove(t.h)
	}
}

// Reset re-keys a pending timer to fire d seconds from now. It takes the
// next sequence number exactly as a fresh After would, so resetting in
// place orders events the same as canceling and re-arming. It reports
// false, doing nothing, once the timer has fired or been canceled.
func (t Timer) Reset(d float64) bool {
	if t.k == nil || !t.k.calls.Live(t.h) {
		return false
	}
	k := t.k
	if d < 0 {
		d = 0
	}
	k.seq++
	return k.calls.Rekey(t.h, k.now+d, k.seq)
}

// Kernel is the event loop. Callbacks scheduled with After wait in a
// heap that keeps handles for Timer; packet events wait in lanes, one
// FIFO per scheduling offset (evq.Lanes), since every packet event is
// due a link delay, a serialization time or zero after the moment it
// was scheduled. Both draw on one sequence counter, and the loop runs
// whichever head is earlier in (time, seq), so the split changes no
// event's order. The zero value is ready to use for callbacks; packet
// events need the Net that owns the kernel.
type Kernel struct {
	now   float64
	seq   int64
	calls evq.Queue[func()]
	pkts  evq.Lanes[*Packet]
	net   *Net
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
	return Timer{k: k, h: k.calls.PushHandle(k.now+d, k.seq, fn)}
}

// schedule queues p's next event d seconds from now, taking the next
// sequence number like After.
func (k *Kernel) schedule(d float64, kind eventKind, p *Packet) {
	k.seq++
	p.ev = kind
	k.pkts.Push(k.now, d, k.seq, p)
}

// next reports the time of the earliest pending event and whether it is
// a callback; ok is false when nothing is pending.
func (k *Kernel) next() (at float64, call, ok bool) {
	if k.pkts.Len() == 0 {
		if k.calls.Len() == 0 {
			return 0, false, false
		}
		return k.calls.Min().At, true, true
	}
	p := k.pkts.Min()
	if k.calls.Len() > 0 {
		if c := k.calls.Min(); evq.Before(c.At, c.Seq, p.At, p.Seq) {
			return c.At, true, true
		}
	}
	return p.At, false, true
}

// fire pops and runs the earliest event, a callback when call is set.
func (k *Kernel) fire(call bool) {
	if call {
		it := k.calls.Pop()
		k.now = it.At
		it.Val()
		return
	}
	it := k.pkts.Pop()
	k.now = it.At
	p := it.Val
	switch p.ev {
	case evTxDone:
		k.net.txDone(p.Route[p.Hop], p)
	case evArrive:
		k.net.arrive(p)
	case evDeliver:
		k.net.deliverAndFree(p)
	}
}

// Step runs the next pending event; it reports false when none remain.
func (k *Kernel) Step() bool {
	_, call, ok := k.next()
	if ok {
		k.fire(call)
	}
	return ok
}

// Run processes events until the queue drains or time would exceed until.
func (k *Kernel) Run(until float64) {
	for {
		at, call, ok := k.next()
		if !ok || at > until {
			return
		}
		k.fire(call)
	}
}

// Pending reports the number of queued events, callbacks and packet
// events alike; canceled callbacks leave the queue at once and are not
// counted.
func (k *Kernel) Pending() int { return k.calls.Len() + k.pkts.Len() }
