package workload

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
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
		rng := rand.New(rand.NewSource(cfg.Seed + int64(h)*7919))
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

// TestOpenPoissonRejectsNonFiniteDuration: a NaN or infinite window
// never retires a host, so the stream would run forever; NewOpenPoisson
// refuses it, while a zero or negative window still means an unbounded
// stream.
func TestOpenPoissonRejectsNonFiniteDuration(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		l, cfg := openTestConfig(3, d)
		if _, err := NewOpenPoisson(l, cfg); err == nil {
			t.Fatalf("duration %g accepted", d)
		}
	}
	for _, d := range []float64{0, -1} {
		l, cfg := openTestConfig(3, d)
		op, err := NewOpenPoisson(l, cfg)
		if err != nil {
			t.Fatalf("duration %g: %v", d, err)
		}
		if n := len(drain(t, op, 300)); n != 300 {
			t.Errorf("duration %g: stream ended after %d flows, want unbounded", d, n)
		}
	}
}

// TestOpenPoissonRefusesSelfOnlyPattern: a pattern that can only return
// the source host used to spin NewOpenPoisson for ever on an unbounded
// stream. It now gives up after maxSelfDraws self-draws in a row with a
// SelfDrawError, well within a second.
func TestOpenPoissonRefusesSelfOnlyPattern(t *testing.T) {
	l := &Layout{NumHosts: 4}
	cfg := Config{Pattern: Stride{N: 4, Step: 4}, RatePerHost: 1, SizeBytes: 1 << 20, Seed: 1}
	done := make(chan error, 1)
	go func() {
		_, err := NewOpenPoisson(l, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		var se *SelfDrawError
		if !errors.As(err, &se) || se.Host != 0 {
			t.Fatalf("got %v, want a SelfDrawError for host 0", err)
		}
	case <-time.After(time.Second):
		t.Fatal("NewOpenPoisson did not return within a second")
	}
}
