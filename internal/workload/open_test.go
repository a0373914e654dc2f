package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dard/internal/detrand"
	"dard/internal/snap"
)

func openTestConfig(seed int64, duration float64) (*Layout, Config) {
	l := &Layout{NumHosts: 8}
	return l, Config{
		Pattern:     Random{L: l},
		RatePerHost: 5,
		Duration:    duration,
		SizeBytes:   1 << 20,
		Seed:        seed,
	}
}

func drain(t *testing.T, op *OpenPoisson, n int) []Flow {
	t.Helper()
	out := make([]Flow, 0, n)
	for len(out) < n {
		peek, ok := op.Peek()
		if !ok {
			break
		}
		wf, ok := op.Next()
		if !ok {
			t.Fatal("Peek ok but Next exhausted")
		}
		if wf != peek {
			t.Fatalf("Next returned %+v, Peek promised %+v", wf, peek)
		}
		out = append(out, wf)
	}
	return out
}

func TestOpenPoissonStreamShape(t *testing.T) {
	l, cfg := openTestConfig(7, 0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := drain(t, op, 500)
	if len(flows) != 500 {
		t.Fatalf("unbounded stream exhausted after %d flows", len(flows))
	}
	for i, wf := range flows {
		if wf.ID != i {
			t.Fatalf("flow %d has ID %d, want dense sequential", i, wf.ID)
		}
		if i > 0 && wf.Arrival < flows[i-1].Arrival {
			t.Fatalf("flow %d arrives at %g before its predecessor's %g", i, wf.Arrival, flows[i-1].Arrival)
		}
		if wf.Src == wf.Dst || wf.Src < 0 || wf.Src >= l.NumHosts || wf.Dst < 0 || wf.Dst >= l.NumHosts {
			t.Fatalf("flow %d has bad endpoints %d -> %d", i, wf.Src, wf.Dst)
		}
		if wf.SizeBits != cfg.SizeBytes*8 {
			t.Fatalf("flow %d has size %g, want %g", i, wf.SizeBits, cfg.SizeBytes*8)
		}
	}
}

func TestOpenPoissonDeterminism(t *testing.T) {
	l, cfg := openTestConfig(11, 0)
	a, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := drain(t, a, 200), drain(t, b, 200)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("flow %d differs across identically seeded streams: %+v vs %+v", i, fa[i], fb[i])
		}
	}
}

func TestOpenPoissonBoundedHorizon(t *testing.T) {
	l, cfg := openTestConfig(3, 2.0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := drain(t, op, 1<<20)
	if len(flows) == 0 {
		t.Fatal("bounded stream produced no flows")
	}
	if _, ok := op.Peek(); ok {
		t.Fatal("stream still live after draining past the horizon")
	}
	for i, wf := range flows {
		if wf.Arrival >= cfg.Duration {
			t.Fatalf("flow %d arrives at %g, past the %g horizon", i, wf.Arrival, cfg.Duration)
		}
	}
}

// TestOpenPoissonMergeOrder pins the stream's merge order: replaying
// every host's substream by hand and stable-sorting the union by
// arrival (hosts appended in index order, so ties go to the lower host)
// must give exactly the drained stream, with dense IDs.
func TestOpenPoissonMergeOrder(t *testing.T) {
	l, cfg := openTestConfig(5, 3.0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, op, 1<<20)

	var want []Flow
	for h := 0; h < l.NumHosts; h++ {
		rng := rand.New(detrand.NewSeeded(cfg.Seed + int64(h)*7919))
		at := 0.0
		for {
			at += rng.ExpFloat64() / cfg.RatePerHost
			if at >= cfg.Duration {
				break
			}
			dst := cfg.Pattern.PickDst(rng, h)
			if dst == h {
				continue
			}
			want = append(want, Flow{Src: h, Dst: dst, SizeBits: cfg.SizeBytes * 8, Arrival: at})
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Arrival < want[j].Arrival })
	for i := range want {
		want[i].ID = i
	}

	if len(got) != len(want) {
		t.Fatalf("stream produced %d flows, per-host replay %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d = %+v, per-host replay merges to %+v", i, got[i], want[i])
		}
	}
}

func TestOpenPoissonSnapshotResume(t *testing.T) {
	l, cfg := openTestConfig(42, 0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, op, 137)

	enc := snap.NewEncoder(1)
	op.SnapshotState(enc)
	blob := enc.Finish()
	rest := drain(t, op, 100)

	resumed, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snap.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}

	// Re-encoding the restored state must reproduce the snapshot bytes.
	enc2 := snap.NewEncoder(1)
	resumed.SnapshotState(enc2)
	if blob2 := enc2.Finish(); string(blob2) != string(blob) {
		t.Fatal("restored stream re-encodes differently")
	}

	got := drain(t, resumed, 100)
	for i := range rest {
		if got[i] != rest[i] {
			t.Fatalf("resumed flow %d = %+v, uninterrupted stream had %+v", i, got[i], rest[i])
		}
	}
}

func TestOpenPoissonRestoreRejectsMismatch(t *testing.T) {
	l, cfg := openTestConfig(1, 0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc := snap.NewEncoder(1)
	op.SnapshotState(enc)
	blob := enc.Finish()

	smaller := &Layout{NumHosts: 4}
	other, err := NewOpenPoisson(smaller, Config{
		Pattern: Random{L: smaller}, RatePerHost: 5, SizeBytes: 1 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snap.NewDecoder(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(dec); err == nil {
		t.Fatal("restore across host counts succeeded")
	}
}

func TestOpenPoissonConfigValidation(t *testing.T) {
	l := &Layout{NumHosts: 8}
	cases := []Config{
		{RatePerHost: 5, Seed: 1},                              // nil pattern
		{Pattern: Random{L: l}, RatePerHost: 0, Seed: 1},       // no rate
		{Pattern: Random{L: l}, RatePerHost: 5, SizeBytes: -1}, // negative size
	}
	for i, cfg := range cases {
		if _, err := NewOpenPoisson(l, cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	one := &Layout{NumHosts: 1}
	if _, err := NewOpenPoisson(one, Config{Pattern: Random{L: one}, RatePerHost: 5}); err == nil {
		t.Error("single-host layout accepted")
	}
}

// TestOpenPoissonRestoreRejectsCorruptTimes feeds RestoreState blobs
// that are well-formed but inconsistent: a live stream whose candidate
// time differs from its stream time in any bit, and stream times that
// are negative or NaN. Each must be refused; the untouched state must
// restore.
func TestOpenPoissonRestoreRejectsCorruptTimes(t *testing.T) {
	l, cfg := openTestConfig(5, 0)
	op, err := NewOpenPoisson(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, op, 20)
	// encode writes op's state as SnapshotState does, after edit has
	// changed host 3's stream and candidate times.
	encode := func(edit func(st, ct *float64)) []byte {
		enc := snap.NewEncoder(1)
		enc.I64(int64(op.nextID))
		enc.U32(uint32(len(op.hosts)))
		for h := range op.hosts {
			hs := &op.hosts[h]
			st, ct := hs.t, hs.cand.t
			if h == 3 {
				edit(&st, &ct)
			}
			enc.U64(hs.src.State())
			enc.F64(st)
			enc.Bool(hs.live)
			if hs.live {
				enc.F64(ct)
				enc.I64(int64(hs.cand.dst))
			}
		}
		return enc.Finish()
	}
	if !op.hosts[3].live {
		t.Fatal("host 3 retired in an unbounded stream")
	}
	restore := func(blob []byte) error {
		fresh, err := NewOpenPoisson(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snap.NewDecoder(blob)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.RestoreState(dec)
	}
	if err := restore(encode(func(st, ct *float64) {})); err != nil {
		t.Fatalf("untouched state refused: %v", err)
	}
	nan := math.NaN()
	for name, edit := range map[string]func(st, ct *float64){
		"candidate one ulp late":  func(st, ct *float64) { *ct = math.Nextafter(*ct, math.Inf(1)) },
		"candidate one ulp early": func(st, ct *float64) { *ct = math.Nextafter(*ct, 0) },
		"negative time":           func(st, ct *float64) { *st, *ct = -*st, -*ct },
		"NaN time":                func(st, ct *float64) { *st, *ct = nan, nan },
		"zero and negative zero":  func(st, ct *float64) { *st, *ct = 0, math.Copysign(0, -1) },
	} {
		if err := restore(encode(edit)); err == nil {
			t.Errorf("%s: restore accepted the blob", name)
		}
	}
}
