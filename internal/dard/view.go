package dard

import (
	"sort"

	"dard/internal/ctlmsg"
	"dard/internal/topology"
)

// portView is the controller's decoded port view: every exit port's
// state as its switch last reported it, versioned so that a fold
// deferred to when Algorithm 1 reads it sees the view exactly as it
// stood at the query tick that took it.
//
// Every write that changes a port already in the view advances the
// epoch by one and appends the state it overwrote to the undo log, so
// the record of the change that made epoch e sits at undo[e-first]. A
// port's first report changes nothing a fold can read: a tick reads
// every switch its paths leave from before it takes its epoch.
//
// A fault-free tick pins its collector to the current epoch; the fold
// reads each path link's current state, or, for a link changed since,
// walks that link's undo records back to the state it had then. The
// log keeps only records some pinned collector can still read: when it
// fills, it drops every record at or below the oldest pin.
type portView struct {
	ports *LinkState
	epoch uint64
	// changed is, per link, the epoch of its last change; 0 if it has
	// not changed since its first report.
	changed []uint64
	undo    []undoRecord
	first   uint64 // the epoch of undo[0]'s change
	// pins counts the pending folds pinned at each epoch, in epoch
	// order; entries before pinHead are gone, and one whose count fell
	// to zero is dropped when it reaches the front. Each entry's epoch
	// is distinct and was current when pinned, so there are never more
	// entries than undo records plus one.
	pins    []epochPins
	pinHead int
	// zero counts the ports reading 0 Mbps: failed links and presumed
	// dead switches, the only source of a zero path BoNF.
	zero int
}

// undoRecord is one overwritten port state and the epoch of the same
// link's previous change (0 if none).
type undoRecord struct {
	old  ctlmsg.PortState
	prev uint64
}

type epochPins struct {
	epoch uint64
	n     int
}

func newPortView(numLinks int) *portView {
	return &portView{ports: NewLinkState(numLinks), changed: make([]uint64, numLinks), first: 1}
}

// set writes p into the view, logging the state it overwrites when it
// changes one. The link ID comes off a switch's port list, but an ID
// outside the table is still an error, not a panic.
func (v *portView) set(p ctlmsg.PortState) error {
	if uint64(p.LinkID) >= uint64(len(v.changed)) {
		return v.ports.Set(p)
	}
	l := topology.LinkID(p.LinkID)
	old, had := v.ports.Get(l)
	if had {
		if old == p {
			return nil
		}
		if old.BandwidthMbps == 0 {
			v.zero--
		}
		if len(v.undo) == cap(v.undo) {
			v.prune()
		}
		v.epoch++
		v.undo = append(v.undo, undoRecord{old: old, prev: v.changed[l]})
		v.changed[l] = v.epoch
	}
	if p.BandwidthMbps == 0 {
		v.zero++
	}
	return v.ports.Set(p)
}

// at returns a reader of the view as it stood at epoch, which must be
// the current epoch or one a collector still pins.
func (v *portView) at(epoch uint64) linkReader {
	if epoch == v.epoch {
		return linkReader{ports: v.ports} // nothing to rewind
	}
	return linkReader{ports: v.ports, view: v, epoch: epoch}
}

// rewind returns the state l had at epoch, which is older than l's last
// change: the state the first change after epoch overwrote.
func (v *portView) rewind(l topology.LinkID, epoch uint64) ctlmsg.PortState {
	r := v.undo[v.changed[l]-v.first]
	for r.prev > epoch {
		r = v.undo[r.prev-v.first]
	}
	return r.old
}

// pin marks c's fold pending at the current epoch.
func (v *portView) pin(c *Collector) {
	if c.pending {
		if c.epoch == v.epoch {
			return
		}
		v.unpin(c)
	}
	c.epoch, c.pending = v.epoch, true
	if n := len(v.pins); n > v.pinHead && v.pins[n-1].epoch == v.epoch {
		v.pins[n-1].n++
		return
	}
	if len(v.pins) == cap(v.pins) {
		v.oldestPin() // drops settled entries from the front
		n := copy(v.pins, v.pins[v.pinHead:])
		v.pins, v.pinHead = v.pins[:n], 0
	}
	v.pins = append(v.pins, epochPins{epoch: v.epoch, n: 1})
}

// unpin settles c's pending fold: it has run, or nothing will read it.
func (v *portView) unpin(c *Collector) {
	c.pending = false
	live := v.pins[v.pinHead:]
	i := sort.Search(len(live), func(i int) bool { return live[i].epoch >= c.epoch })
	live[i].n--
}

// oldestPin returns the oldest epoch a pending fold still reads, or the
// current epoch when none is pending.
func (v *portView) oldestPin() uint64 {
	for ; v.pinHead < len(v.pins); v.pinHead++ {
		if p := v.pins[v.pinHead]; p.n > 0 {
			return p.epoch
		}
	}
	v.pins, v.pinHead = v.pins[:0], 0
	return v.epoch
}

// prune drops the undo records no pending fold can read: those of the
// changes up to the oldest pinned epoch.
func (v *portView) prune() {
	k := int(v.oldestPin() + 1 - v.first)
	n := copy(v.undo, v.undo[k:])
	v.undo = v.undo[:n]
	v.first += uint64(k)
}

// linkReader reads a link table, as it stands or, through a port view's
// undo log, as it stood at an earlier epoch.
type linkReader struct {
	ports *LinkState
	view  *portView // nil: read ports as it stands
	epoch uint64
}
