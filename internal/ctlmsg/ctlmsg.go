// Package ctlmsg defines DARD's control-plane wire protocol: the state
// query a monitor sends to a switch and the per-port state reply the
// switch returns (§2.4.2, §4.3.4). The paper gives the message sizes —
// a host→switch query is 48 bytes and a switch→host reply 32 bytes —
// and the formats here are engineered to exactly those sizes so control
// traffic accounting is grounded in marshaled bytes rather than
// constants.
package ctlmsg

import (
	"encoding/binary"
	"fmt"
)

// Wire sizes (bytes), matching §4.3.4.
const (
	// QueryLen is the fixed size of a state query.
	QueryLen = 48
	// ReplyHeaderLen is the fixed prefix of a state reply.
	ReplyHeaderLen = 16
	// PortStateLen is the size of one per-port record; a reply carrying
	// a single port record is the paper's 32-byte switch→host message.
	PortStateLen = 16
)

// queryPayloadLen is the length of a query's fields; the rest of its
// QueryLen bytes is zeroed reserved padding.
const queryPayloadLen = 28

// Magic numbers distinguishing message kinds.
const (
	queryMagic uint32 = 0xDA4DC001
	replyMagic uint32 = 0xDA4DC002
)

// Query asks a switch for the state of its exit ports.
type Query struct {
	// MonitorID identifies the asking monitor (host index << 16 | seq).
	MonitorID uint64
	// SwitchID is the queried switch's node ID.
	SwitchID uint32
	// SeqNo matches replies to queries.
	SeqNo uint32
	// TimestampMicros is the send time in microseconds of simulation
	// time (for staleness accounting).
	TimestampMicros uint64
}

// AppendBinary appends the QueryLen-byte encoding of q to dst and
// returns the extended slice; it is the query's only encoder.
func (q Query) AppendBinary(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, queryMagic)
	dst = binary.BigEndian.AppendUint64(dst, q.MonitorID)
	dst = binary.BigEndian.AppendUint32(dst, q.SwitchID)
	dst = binary.BigEndian.AppendUint32(dst, q.SeqNo)
	dst = binary.BigEndian.AppendUint64(dst, q.TimestampMicros)
	// Remaining bytes are reserved padding, zeroed.
	return append(dst, make([]byte, QueryLen-queryPayloadLen)...), nil
}

// MarshalBinary implements encoding.BinaryMarshaler; the result is
// exactly QueryLen bytes.
func (q Query) MarshalBinary() ([]byte, error) {
	return q.AppendBinary(make([]byte, 0, QueryLen))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (q *Query) UnmarshalBinary(data []byte) error {
	if len(data) != QueryLen {
		return fmt.Errorf("ctlmsg: query must be %d bytes, have %d", QueryLen, len(data))
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != queryMagic {
		return fmt.Errorf("ctlmsg: bad query magic %#08x", m)
	}
	q.MonitorID = binary.BigEndian.Uint64(data[4:])
	q.SwitchID = binary.BigEndian.Uint32(data[12:])
	q.SeqNo = binary.BigEndian.Uint32(data[16:])
	q.TimestampMicros = binary.BigEndian.Uint64(data[20:])
	for i := queryPayloadLen; i < QueryLen; i++ {
		if data[i] != 0 {
			return fmt.Errorf("ctlmsg: query has non-zero reserved byte at offset %d", i)
		}
	}
	return nil
}

// PortState is one exit port's state: its link, the configured bandwidth,
// and the number of elephant flows currently installed on it — the two
// quantities BoNF is computed from (§2.4.2).
type PortState struct {
	// LinkID is the directed link leaving this port.
	LinkID uint32
	// BandwidthMbps is the port's configured rate in Mbit/s.
	BandwidthMbps uint32
	// ElephantFlows is the installed elephant flow count.
	ElephantFlows uint32
	// QueuedKB approximates the output queue depth in kilobytes (zero
	// on the fluid engine).
	QueuedKB uint32
}

// Reply carries a switch's port states back to the monitor.
type Reply struct {
	// SwitchID echoes the queried switch.
	SwitchID uint32
	// SeqNo echoes the query.
	SeqNo uint32
	// Ports holds one record per exit port.
	Ports []PortState
}

// Size returns the marshaled length of the reply.
func (r Reply) Size() int { return ReplyHeaderLen + len(r.Ports)*PortStateLen }

// AppendBinary appends the Size()-byte encoding of r to dst and returns
// the extended slice; it is the reply's only encoder.
func (r Reply) AppendBinary(dst []byte) ([]byte, error) {
	if len(r.Ports) > 0xffff {
		return dst, fmt.Errorf("ctlmsg: too many ports (%d)", len(r.Ports))
	}
	dst = appendReplyHeader(dst, r.SwitchID, r.SeqNo, len(r.Ports))
	n := len(dst)
	dst = append(dst, make([]byte, len(r.Ports)*PortStateLen)...)
	for i, p := range r.Ports {
		putPortState(dst[n+i*PortStateLen:], p)
	}
	return dst, nil
}

// appendReplyHeader appends a reply's ReplyHeaderLen-byte header to dst.
// With putPortState it is the reply's one encoder, shared by
// Reply.AppendBinary and the switch agent's cached port records.
func appendReplyHeader(dst []byte, switchID, seqNo uint32, nPorts int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, replyMagic)
	dst = binary.BigEndian.AppendUint32(dst, switchID)
	dst = binary.BigEndian.AppendUint32(dst, seqNo)
	return binary.BigEndian.AppendUint32(dst, uint32(nPorts))
}

// putPortState writes one PortStateLen-byte port record into b.
func putPortState(b []byte, p PortState) {
	binary.BigEndian.PutUint32(b[0:], p.LinkID)
	binary.BigEndian.PutUint32(b[4:], p.BandwidthMbps)
	binary.BigEndian.PutUint32(b[8:], p.ElephantFlows)
	binary.BigEndian.PutUint32(b[12:], p.QueuedKB)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (r Reply) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.Size()))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It decodes
// into r.Ports' backing array when that is large enough, so a Reply
// reused across exchanges parses without allocating.
func (r *Reply) UnmarshalBinary(data []byte) error {
	if len(data) < ReplyHeaderLen {
		return fmt.Errorf("ctlmsg: reply needs at least %d bytes, have %d", ReplyHeaderLen, len(data))
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != replyMagic {
		return fmt.Errorf("ctlmsg: bad reply magic %#08x", m)
	}
	r.SwitchID = binary.BigEndian.Uint32(data[4:])
	r.SeqNo = binary.BigEndian.Uint32(data[8:])
	n := int(binary.BigEndian.Uint32(data[12:]))
	want := ReplyHeaderLen + n*PortStateLen
	if len(data) != want {
		return fmt.Errorf("ctlmsg: reply with %d ports must be %d bytes, have %d", n, want, len(data))
	}
	if cap(r.Ports) < n {
		r.Ports = make([]PortState, n)
	} else {
		r.Ports = r.Ports[:n]
	}
	off := ReplyHeaderLen
	for i := range r.Ports {
		r.Ports[i] = PortState{
			LinkID:        binary.BigEndian.Uint32(data[off:]),
			BandwidthMbps: binary.BigEndian.Uint32(data[off+4:]),
			ElephantFlows: binary.BigEndian.Uint32(data[off+8:]),
			QueuedKB:      binary.BigEndian.Uint32(data[off+12:]),
		}
		off += PortStateLen
	}
	return nil
}
