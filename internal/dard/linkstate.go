package dard

import (
	"fmt"

	"dard/internal/ctlmsg"
	"dard/internal/topology"
)

// LinkState is the per-link port state one query round assembles: the
// reported ctlmsg.PortState of every link, indexed densely by LinkID.
// Entries carry the generation they were written in, so Reset forgets
// the whole table in O(1) and a round touches only the links its
// switches report.
type LinkState struct {
	entries []linkEntry
	gen     uint32
}

// linkEntry keeps a port state next to its stamp, so recording or
// reading a link touches one cache line.
type linkEntry struct {
	port ctlmsg.PortState
	gen  uint32
}

// NewLinkState returns an empty table over numLinks links.
func NewLinkState(numLinks int) *LinkState {
	return &LinkState{entries: make([]linkEntry, numLinks), gen: 1}
}

// Reset forgets every entry.
func (s *LinkState) Reset() {
	s.gen++
	if s.gen == 0 {
		// The stamp wrapped: entries from 2^32 rounds ago would read
		// as current, so clear them the slow way once.
		clear(s.entries)
		s.gen = 1
	}
}

// Set records a port's state under the link it reports. The link ID
// comes off the wire, so one outside the table is an error, not a panic.
func (s *LinkState) Set(p ctlmsg.PortState) error {
	if uint64(p.LinkID) >= uint64(len(s.entries)) {
		return fmt.Errorf("port state for link %d outside the %d-link topology", p.LinkID, len(s.entries))
	}
	s.entries[p.LinkID] = linkEntry{port: p, gen: s.gen}
	return nil
}

// Get returns the state recorded for l since the last Reset; l must be
// a link of the topology the table was built for.
func (s *LinkState) Get(l topology.LinkID) (ctlmsg.PortState, bool) {
	if e := s.entries[l]; e.gen == s.gen {
		return e.port, true
	}
	return ctlmsg.PortState{}, false
}
