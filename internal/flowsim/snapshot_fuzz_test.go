package flowsim

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"dard/internal/sched"
	"dard/internal/topology"
	"dard/internal/workload"
)

// snapFuzzConfig is the fixed run every fuzz input is decoded against:
// a p=4 fat-tree with a random-path controller (so the RNG stream
// position matters), elephant classification (classify timers), and a
// mid-run fail/repair pair (link-event timers plus down-link state).
func snapFuzzConfig(net topology.Network, g *topology.Graph) Config {
	rng := rand.New(rand.NewSource(99))
	numHosts := len(g.NodesOfKind(topology.Host))
	flows := make([]workload.Flow, 40)
	at := 0.0
	for i := range flows {
		at += rng.Float64() * 0.05
		src := rng.Intn(numHosts)
		dst := rng.Intn(numHosts)
		for dst == src {
			dst = rng.Intn(numHosts)
		}
		flows[i] = workload.Flow{
			ID:       i,
			Src:      src,
			Dst:      dst,
			SizeBits: (1 + rng.Float64()*63) * 1e8,
			Arrival:  at,
		}
	}
	fabric := fabricLinks(g)
	events := append(duplexEvent(g, 0.4, fabric[0], true), duplexEvent(g, 1.3, fabric[0], false)...)
	return Config{
		Net: net,
		Controller: &staticController{pathIdx: func(s *Sim, f sched.Flow) int {
			return s.Rand().Intn(s.PathSet(f.SrcToR, f.DstToR).Len())
		}},
		Arrivals:    workload.List(flows),
		Seed:        99,
		ElephantAge: 0.2,
		LinkEvents:  events,
	}
}

// FuzzSnapshotRoundTrip drives arbitrary bytes through Restore and pins
// the codec's two safety properties. First: corrupt or adversarial
// input must be rejected with an error — never a panic, hang, or
// silently accepted half-state (the decoder's CRC, section marks, and
// the restore path's semantic validation all stand between wire bytes
// and a live Sim). Second: any input Restore does accept must re-encode
// byte-identically, and restoring those bytes again must reproduce them
// once more — decode(encode) is the identity on the codec's image. The
// seed corpus holds genuine snapshots taken at several pause points of
// a real run, so the fuzzer mutates from live formats rather than only
// garbage. Nearly every mutation here fails the CRC, so the frame
// checks are what this target exercises; FuzzSnapshotSemantics
// re-CRCs its mutations to reach the checks behind it.
func FuzzSnapshotRoundTrip(f *testing.F) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		f.Fatal(err)
	}
	g := ft.Graph()

	for _, pauseAt := range []int64{1, 17, 61, 97} {
		sim, err := New(snapFuzzConfig(ft, g))
		if err != nil {
			f.Fatal(err)
		}
		sim.PauseAfter(pauseAt)
		if _, err := sim.Run(); err != ErrPaused {
			f.Fatalf("pause at %d: %v", pauseAt, err)
		}
		blob, err := sim.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// A truncation of a real snapshot probes the length guards.
		f.Add(blob[:len(blob)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("DARDSNAP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		sim, err := Restore(snapFuzzConfig(ft, g), data)
		if err != nil {
			return // rejected cleanly — the property is "no panic"
		}
		b1, err := sim.Snapshot()
		if err != nil {
			t.Fatalf("restored sim cannot snapshot: %v", err)
		}
		again, err := Restore(snapFuzzConfig(ft, g), b1)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		b2, err := again.Snapshot()
		if err != nil {
			t.Fatalf("second restore cannot snapshot: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("snapshot round-trip is not idempotent:\n  first:  %x\n  second: %x", b1, b2)
		}
	})
}

// FuzzSnapshotSemantics mutates a snapshot's body and recomputes its
// CRC, so every mutation passes the frame check that stops almost all
// of FuzzSnapshotRoundTrip's inputs and lands on Restore's semantic
// checks: the RNG draw cap, the arrived bound, the replayed-flow
// comparison, section marks, the active list and the timers. The
// property is FuzzSnapshotRoundTrip's: reject with an error, or accept
// a state that re-encodes byte-identically; never panic or hang. The
// seeds are snapshots of a listed and a streamed workload (kind 0 and
// 1) at several pause points, minus their CRC trailers.
func FuzzSnapshotSemantics(f *testing.F) {
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: 4})
	if err != nil {
		f.Fatal(err)
	}
	configs := []func(t testing.TB) Config{
		func(testing.TB) Config { return snapFuzzConfig(ft, ft.Graph()) },
		func(t testing.TB) Config { return steadySnapConfig(t, ft, 42, 0) },
	}
	for kind, mk := range configs {
		for _, pauseAt := range []int64{1, 17, 61, 97} {
			_, blob := pausedSnapshot(f, mk(f), pauseAt)
			f.Add(uint8(kind), blob[:len(blob)-4])
		}
	}

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		mk := configs[int(kind)%len(configs)]
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		sim, err := Restore(mk(t), data)
		if err != nil {
			return
		}
		b1, err := sim.Snapshot()
		if err != nil {
			t.Fatalf("restored sim cannot snapshot: %v", err)
		}
		again, err := Restore(mk(t), b1)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		b2, err := again.Snapshot()
		if err != nil {
			t.Fatalf("second restore cannot snapshot: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("snapshot round-trip is not idempotent:\n  first:  %x\n  second: %x", b1, b2)
		}
	})
}
