package detrand

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeterministicStream(t *testing.T) {
	a, b := NewStd(42), NewStd(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverge at draw %d: %x vs %x", i, x, y)
		}
	}
	c := NewStd(43)
	same := 0
	a.Seed(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds agree on %d/100 draws", same)
	}
}

// TestStateRoundTrip pins the checkpoint contract: a stream's state is
// its seed and draw count, so a fresh source replayed to the count
// continues exactly where the original stood, on either side of the
// 273-draw closed form and of the first register wrap.
func TestStateRoundTrip(t *testing.T) {
	for _, n := range []int{0, 17, stdTap - 1, stdTap, stdTap + 1, stdLen, 3*stdLen + 5} {
		src := NewStd(7)
		for i := 0; i < n; i++ {
			src.Uint64()
		}
		saved := src.Draws()
		if saved != uint64(n) {
			t.Fatalf("after %d draws Draws() = %d", n, saved)
		}
		want := make([]uint64, 50)
		for i := range want {
			want[i] = src.Uint64()
		}
		restored := NewStd(7)
		restored.Replay(saved)
		for i := range want {
			if got := restored.Uint64(); got != want[i] {
				t.Fatalf("restored at %d: stream diverges at draw %d", n, i)
			}
		}
		if restored.Draws() != src.Draws() {
			t.Fatalf("restored at %d: Draws() %d, original %d", n, restored.Draws(), src.Draws())
		}
	}
}

// TestRandRandLayering pins the property the checkpoint codec relies on:
// rand.Rand keeps no hidden state for the distribution methods the
// simulator uses, so replaying a fresh Std to the draw count and
// layering a fresh rand.Rand on it reproduces the original draws
// exactly.
func TestRandRandLayering(t *testing.T) {
	seededSrc := NewStd(99)
	rng := rand.New(seededSrc)
	for i := 0; i < 131; i++ {
		rng.Float64()
		rng.Intn(17)
		rng.ExpFloat64()
	}
	saved := seededSrc.Draws()

	type draw struct {
		f float64
		n int
		e float64
	}
	want := make([]draw, 40)
	for i := range want {
		want[i] = draw{rng.Float64(), rng.Intn(17), rng.ExpFloat64()}
	}

	restoredSrc := NewStd(99)
	restoredSrc.Replay(saved)
	rng2 := rand.New(restoredSrc)
	for i := range want {
		got := draw{rng2.Float64(), rng2.Intn(17), rng2.ExpFloat64()}
		if got != want[i] {
			t.Fatalf("layered stream diverges at draw %d: %v vs %v", i, got, want[i])
		}
	}
}

func TestInt63NonNegative(t *testing.T) {
	src := NewStd(-1)
	for i := 0; i < 1000; i++ {
		if v := src.Int63(); v < 0 {
			t.Fatalf("Int63 returned negative %d", v)
		}
	}
}

// stdSeeds are the seeds math/rand's normalisation treats specially
// (zero, the modulus and its multiples, its stand-in for zero, the
// extremes of int64) plus a few ordinary ones.
var stdSeeds = []int64{
	0, 1, -1, 2, -2, 7919,
	stdMod, -stdMod, 2 * stdMod, -2 * stdMod, 5*stdMod + 3, -5*stdMod - 3,
	stdZero, -stdZero, stdMod - 1, stdMod + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, -1 << 40, 1<<62 + 12345,
}

// checkStdStream draws n values from want and got alike, choosing Int63
// or Uint64 per draw from mix, and reports the first difference.
func checkStdStream(t *testing.T, seed int64, want rand.Source64, got *Std, n int, mix uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		if mix>>(i%64)&1 == 1 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 draw %d: math/rand %#x, Std %#x", seed, i, w, g)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d: Int63 draw %d: math/rand %d, Std %d", seed, i, w, g)
		}
	}
}

// TestStdMatchesMathRand pins Std to math/rand's default source: every
// stream runs past three register wraps, mixes Int63 and Uint64, and is
// reseeded mid-stream, on one reused Std.
func TestStdMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), stdSeeds...)
	r := rand.New(rand.NewSource(7))
	for range 20 {
		seeds = append(seeds, r.Int63()-r.Int63())
	}
	got := NewStd(seeds[0])
	for k, seed := range seeds {
		mix := r.Uint64()
		want := rand.NewSource(seed).(rand.Source64)
		got.Seed(seed)
		// A partly drawn register must not leak into the next stream.
		checkStdStream(t, seed, want, got, 1+k*37%500, mix)
		want.Seed(seed)
		got.Seed(seed)
		checkStdStream(t, seed, want, got, 3*stdLen+k, mix)
		// Reseed mid-stream, with the register warm.
		next := seed ^ int64(k+1)<<17
		want.Seed(next)
		got.Seed(next)
		checkStdStream(t, next, want, got, 2*stdLen, mix^r.Uint64())
	}
	if fresh := NewStd(42); fresh.Int63() != rand.NewSource(42).Int63() {
		t.Error("NewStd(42) does not start where rand.NewSource(42) does")
	}
}

// checkStdReplay replays got to draw n of seed's stream and compares
// its count and its next draws with math/rand's source advanced n
// draws.
func checkStdReplay(t *testing.T, seed int64, got *Std, n int, mix uint64) {
	t.Helper()
	got.Replay(uint64(n))
	if got.Draws() != uint64(n) {
		t.Fatalf("seed %d: Replay(%d) left Draws() = %d", seed, n, got.Draws())
	}
	want := rand.NewSource(seed).(rand.Source64)
	for range n {
		want.Int63()
	}
	checkStdStream(t, seed, want, got, stdLen+1, mix)
	if got.Draws() != uint64(n+stdLen+1) {
		t.Fatalf("seed %d: %d draws after Replay(%d) left Draws() = %d", seed, stdLen+1, n, got.Draws())
	}
}

// FuzzStdMatchesMathRand compares Std with math/rand's source for
// arbitrary seeds, draw counts and Int63/Uint64 mixes, reseeding both
// mid-stream, and replays Std forward and back to counts on both sides
// of draw 273 (where the register is first filled) and of the first
// wrap at 607.
func FuzzStdMatchesMathRand(f *testing.F) {
	for i, seed := range stdSeeds {
		f.Add(seed, uint16(i*97), uint64(i)*0x9e3779b97f4a7c15, seed+1, uint16(i*61))
	}
	for _, n := range []uint16{stdTap - 1, stdTap, stdTap + 1, stdLen - 1, stdLen, stdLen + stdTap} {
		f.Add(int64(n), n, uint64(n), int64(n)<<20, n)
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, mix uint64, reseed int64, replay uint16) {
		n := int(draws) % (4 * stdLen)
		want := rand.NewSource(seed).(rand.Source64)
		got := NewStd(seed)
		if got.Draws() != 0 {
			t.Fatalf("seed %d: fresh Draws() = %d", seed, got.Draws())
		}
		checkStdStream(t, seed, want, got, n, mix)
		if got.Draws() != uint64(n) {
			t.Fatalf("seed %d: %d draws left Draws() = %d", seed, n, got.Draws())
		}
		want.Seed(reseed)
		got.Seed(reseed)
		checkStdStream(t, reseed, want, got, stdLen+n, ^mix)
		// got now stands past the first wrap: replaying to m goes back
		// to the seed, and replaying on to m+k goes forward from there.
		m := int(replay) % (3 * stdLen)
		checkStdReplay(t, reseed, got, m, mix)
		checkStdReplay(t, reseed, got, m+n, ^mix)
	})
}

func BenchmarkStdSeed(b *testing.B) {
	b.Run("std", func(b *testing.B) {
		s := NewStd(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.Uint64()
		}
	})
	b.Run("mathrand", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.Int63()
		}
	})
}

// BenchmarkStdUint64 draws through the Source64 interface, as rand.Rand
// does.
func BenchmarkStdUint64(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source64
	}{
		{"std", NewStd(1)},
		{"mathrand", rand.NewSource(1).(rand.Source64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.src.Uint64()
			}
		})
	}
}
