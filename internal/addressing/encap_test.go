package addressing

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncapRoundTrip(t *testing.T) {
	h := EncapHeader{
		OuterSrc: Address{1, 2, 3, 4},
		OuterDst: Address{4, 3, 2, 1},
		FlowID:   42,
	}
	payload := []byte("elephant bytes")
	pkt, err := Encapsulate(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != EncapHeaderLen+len(payload) {
		t.Fatalf("packet length %d, want %d", len(pkt), EncapHeaderLen+len(payload))
	}
	got, body, err := Decapsulate(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.OuterSrc != h.OuterSrc || got.OuterDst != h.OuterDst || got.FlowID != h.FlowID {
		t.Errorf("header mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload mismatch: %q", body)
	}
}

// TestEncapRoundTripProperty: every header/payload round-trips exactly.
func TestEncapRoundTripProperty(t *testing.T) {
	f := func(src, dst [4]uint16, flowID uint32, payload []byte) bool {
		h := EncapHeader{OuterSrc: src, OuterDst: dst, FlowID: flowID}
		pkt, err := Encapsulate(h, payload)
		if err != nil {
			return false
		}
		got, body, err := Decapsulate(pkt)
		if err != nil {
			return false
		}
		return got.OuterSrc == h.OuterSrc &&
			got.OuterDst == h.OuterDst &&
			got.FlowID == flowID &&
			got.InnerLen == uint32(len(payload)) &&
			bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecapsulateErrors(t *testing.T) {
	if _, _, err := Decapsulate(nil); err == nil {
		t.Error("nil packet should fail")
	}
	if _, _, err := Decapsulate(make([]byte, EncapHeaderLen-1)); err == nil {
		t.Error("short packet should fail")
	}
	// Bad magic.
	pkt, _ := Encapsulate(EncapHeader{}, []byte("x"))
	pkt[0] = 0
	if _, _, err := Decapsulate(pkt); err == nil {
		t.Error("bad magic should fail")
	}
	// Bad version.
	pkt, _ = Encapsulate(EncapHeader{}, []byte("x"))
	pkt[2] = 99
	if _, _, err := Decapsulate(pkt); err == nil {
		t.Error("bad version should fail")
	}
	// Truncated payload.
	pkt, _ = Encapsulate(EncapHeader{}, []byte("hello"))
	if _, _, err := Decapsulate(pkt[:len(pkt)-2]); err == nil {
		t.Error("truncated payload should fail")
	}
}

// TestEncapSelectsPath ties encapsulation to routing: tunneling the same
// inner flow with different outer address pairs steers it along different
// paths of the fat-tree.
func TestEncapSelectsPath(t *testing.T) {
	ft, plan := buildFatTree(t, 4)
	src, dst := ft.Hosts()[0], ft.Hosts()[8]
	ps := ft.PathSet(ft.ToROf(src), ft.ToROf(dst))
	seen := make(map[string]bool)
	for i := 0; i < ps.Len(); i++ {
		sa, da, err := plan.PathAddresses(src, dst, ps, i)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := Encapsulate(EncapHeader{OuterSrc: sa, OuterDst: da, FlowID: 7}, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := Decapsulate(pkt)
		if err != nil {
			t.Fatal(err)
		}
		links, err := plan.Route(src, dst, h.OuterSrc, h.OuterDst)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, l := range links {
			key += string(rune(l)) + ","
		}
		if seen[key] {
			t.Errorf("two outer address pairs routed the same way (path %s)", ps.Via(i))
		}
		seen[key] = true
	}
	if len(seen) != ps.Len() {
		t.Errorf("encapsulation reached %d distinct routes, want %d", len(seen), ps.Len())
	}
}
