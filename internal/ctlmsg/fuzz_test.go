package ctlmsg

import (
	"bytes"
	"slices"
	"testing"
)

// Fuzz targets for the control-plane wire codecs: unmarshaling arbitrary
// bytes must never panic, and valid messages must round-trip exactly.
// The seed corpora below run as ordinary tests under plain `go test`;
// `go test -fuzz=FuzzX` explores beyond them.

// queryCorpus returns marshaled queries plus adversarial mutations.
func queryCorpus(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, q := range []Query{
		{},
		{MonitorID: 1<<16 | 7, SwitchID: 42, SeqNo: 9, TimestampMicros: 1_500_000},
		{MonitorID: ^uint64(0), SwitchID: ^uint32(0), SeqNo: ^uint32(0), TimestampMicros: ^uint64(0)},
	} {
		b, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func FuzzQueryUnmarshal(f *testing.F) {
	for _, b := range queryCorpus(f) {
		f.Add(b)
		f.Add(b[:len(b)-1])               // truncated
		f.Add(append([]byte{0xff}, b...)) // oversized, bad magic
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		if err := q.UnmarshalBinary(data); err != nil {
			return // malformed input rejected: fine, as long as no panic
		}
		// Accepted input must round-trip to identical bytes.
		re, err := q.MarshalBinary()
		if err != nil {
			t.Fatalf("unmarshaled query fails to marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("query round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

func FuzzQueryRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint32(0), uint64(0))
	f.Add(uint64(1)<<16|7, uint32(42), uint32(9), uint64(1_500_000))
	f.Add(^uint64(0), ^uint32(0), ^uint32(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, mon uint64, sw, seq uint32, ts uint64) {
		q := Query{MonitorID: mon, SwitchID: sw, SeqNo: seq, TimestampMicros: ts}
		b, err := q.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != QueryLen {
			t.Fatalf("marshaled query is %d bytes, want %d", len(b), QueryLen)
		}
		var got Query
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if got != q {
			t.Fatalf("round trip: %+v != %+v", got, q)
		}
	})
}

func FuzzReplyUnmarshal(f *testing.F) {
	for _, r := range []Reply{
		{},
		{SwitchID: 3, SeqNo: 8, Ports: []PortState{{LinkID: 1, BandwidthMbps: 1000, ElephantFlows: 2, QueuedKB: 5}}},
		{SwitchID: 9, SeqNo: 1, Ports: make([]PortState, 16)},
	} {
		b, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // truncated port record
	}
	// Header declaring more ports than the payload carries: the count
	// field must be validated against the actual length, never trusted.
	huge, err := (Reply{SwitchID: 1, SeqNo: 1}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff
	f.Add(huge)
	f.Add([]byte{})
	// A reply decoded earlier with more ports than most inputs carry:
	// decoding into it again reuses its port storage, which must not
	// leak into the new result.
	big := Reply{SwitchID: 0xdead, SeqNo: 0xbeef, Ports: make([]PortState, 64)}
	for i := range big.Ports {
		big.Ports[i] = PortState{LinkID: uint32(i), BandwidthMbps: 1, ElephantFlows: 2, QueuedKB: 3}
	}
	bigBytes, err := big.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reply
		err := r.UnmarshalBinary(data)
		var reused Reply
		if err := reused.UnmarshalBinary(bigBytes); err != nil {
			t.Fatal(err)
		}
		if reusedErr := reused.UnmarshalBinary(data); (reusedErr == nil) != (err == nil) {
			t.Fatalf("fresh decode error %v, reused decode error %v", err, reusedErr)
		}
		if err != nil {
			return
		}
		if reused.SwitchID != r.SwitchID || reused.SeqNo != r.SeqNo || !slices.Equal(reused.Ports, r.Ports) {
			t.Fatalf("reused decode %+v differs from fresh decode %+v", reused, r)
		}
		re, err := r.MarshalBinary()
		if err != nil {
			t.Fatalf("unmarshaled reply fails to marshal: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("reply round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

func FuzzReplyRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), uint32(0), 0)
	f.Add(uint32(3), uint32(8), uint32(1), uint32(1000), uint32(2), uint32(5), 4)
	f.Fuzz(func(t *testing.T, sw, seq, link, bw, flows, queued uint32, n int) {
		if n < 0 || n > 256 {
			return
		}
		r := Reply{SwitchID: sw, SeqNo: seq}
		for i := 0; i < n; i++ {
			r.Ports = append(r.Ports, PortState{
				LinkID:        link + uint32(i),
				BandwidthMbps: bw,
				ElephantFlows: flows,
				QueuedKB:      queued,
			})
		}
		b, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != r.Size() {
			t.Fatalf("marshaled reply is %d bytes, want Size()=%d", len(b), r.Size())
		}
		var got Reply
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if got.SwitchID != r.SwitchID || got.SeqNo != r.SeqNo || len(got.Ports) != len(r.Ports) {
			t.Fatalf("round trip header: %+v != %+v", got, r)
		}
		for i := range r.Ports {
			if got.Ports[i] != r.Ports[i] {
				t.Fatalf("round trip port %d: %+v != %+v", i, got.Ports[i], r.Ports[i])
			}
		}
	})
}
