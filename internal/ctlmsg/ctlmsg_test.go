package ctlmsg

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestQueryWireSizeMatchesPaper(t *testing.T) {
	// §4.3.4: a host -> switch message takes 48 bytes.
	b, err := Query{MonitorID: 1, SwitchID: 2, SeqNo: 3, TimestampMicros: 4}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 48 || len(b) != QueryLen {
		t.Fatalf("query is %d bytes, want 48", len(b))
	}
}

func TestSinglePortReplyMatchesPaper(t *testing.T) {
	// §4.3.4: a switch -> host message takes 32 bytes; that is the size
	// of a reply carrying exactly one port record.
	r := Reply{SwitchID: 1, SeqNo: 1, Ports: []PortState{{LinkID: 9}}}
	b, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 32 {
		t.Fatalf("single-port reply is %d bytes, want 32", len(b))
	}
}

func TestQueryRoundTrip(t *testing.T) {
	f := func(mon uint64, sw, seq uint32, ts uint64) bool {
		q := Query{MonitorID: mon, SwitchID: sw, SeqNo: seq, TimestampMicros: ts}
		b, err := q.MarshalBinary()
		if err != nil {
			return false
		}
		var got Query
		if err := got.UnmarshalBinary(b); err != nil {
			return false
		}
		return got == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendBinaryAfterPrefix checks both encoders' append contract:
// encoding after an arbitrary prefix leaves the prefix intact and
// appends exactly MarshalBinary's bytes, even when the buffer's spare
// capacity holds garbage (a reused buffer's old contents must not leak
// into the query's reserved padding).
func TestAppendBinaryAfterPrefix(t *testing.T) {
	type appender interface {
		MarshalBinary() ([]byte, error)
		AppendBinary([]byte) ([]byte, error)
	}
	f := func(prefix []byte, spare uint8, mon uint64, sw, seq uint32, ts uint64, ports []PortState) bool {
		if len(ports) > 64 {
			ports = ports[:64]
		}
		for _, m := range []appender{
			Query{MonitorID: mon, SwitchID: sw, SeqNo: seq, TimestampMicros: ts},
			Reply{SwitchID: sw, SeqNo: seq, Ports: ports},
		} {
			want, err := m.MarshalBinary()
			if err != nil {
				return false
			}
			dst := make([]byte, len(prefix)+int(spare))
			for i := range dst {
				dst[i] = 0xa5
			}
			dst = dst[:copy(dst, prefix)]
			out, err := m.AppendBinary(dst)
			if err != nil {
				return false
			}
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
				t.Logf("%T after %d-byte prefix:\n got  %x\n want %x%x", m, len(prefix), out, prefix, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	f := func(sw, seq uint32, ports []PortState) bool {
		if len(ports) > 1024 {
			ports = ports[:1024]
		}
		r := Reply{SwitchID: sw, SeqNo: seq, Ports: ports}
		b, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		if len(b) != r.Size() {
			return false
		}
		var got Reply
		if err := got.UnmarshalBinary(b); err != nil {
			return false
		}
		if got.SwitchID != sw || got.SeqNo != seq || len(got.Ports) != len(ports) {
			return false
		}
		for i := range ports {
			if got.Ports[i] != ports[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var q Query
	if err := q.UnmarshalBinary(make([]byte, 10)); err == nil {
		t.Error("short query should fail")
	}
	if err := q.UnmarshalBinary(make([]byte, QueryLen)); err == nil {
		t.Error("zero magic should fail")
	}
	var r Reply
	if err := r.UnmarshalBinary(nil); err == nil {
		t.Error("nil reply should fail")
	}
	good, _ := (Reply{Ports: []PortState{{}, {}}}).MarshalBinary()
	if err := r.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated reply should fail")
	}
	good[0] = 0
	if err := r.UnmarshalBinary(good); err == nil {
		t.Error("bad reply magic should fail")
	}
}
