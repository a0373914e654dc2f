package detrand

import "math/rand"

const (
	stdLen  = 607       // register words
	stdTap  = 273       // lag of the second tap
	stdMod  = 1<<31 - 1 // Lehmer modulus, the prime 2^31-1
	stdMul  = 48271     // Lehmer multiplier
	stdMask = 1<<63 - 1 // Int63's mask
	stdZero = 89482311  // math/rand's stand-in for a zero seed
	stdFeed = stdLen - stdTap
)

// stdPow[i] is stdMul^(21+3i) mod stdMod: the jump from a seed to the
// first of the three Lehmer values that make register word i.
var stdPow = func() (pow [stdLen]uint64) {
	x := uint64(1)
	for range 21 {
		x = x * stdMul % stdMod
	}
	step := uint64(stdMul) * stdMul % stdMod * stdMul % stdMod
	for i := range pow {
		pow[i] = x
		x = x * step % stdMod
	}
	return pow
}()

// Std is math/rand's default generator with O(1) seeding and no
// register until a stream is long: for every seed its stream is bit for
// bit the one rand.NewSource(seed) produces, through Int63 and Uint64
// alike.
//
// math/rand seeds its additive lagged-Fibonacci register by running a
// Lehmer generator 1,841 steps to fill all 607 words, although a
// workload host draws only a handful of numbers. Draw j adds register
// words 333-j (the feed, which it overwrites) and 606-j (the tap). For
// j < 273 neither word has been written yet, so draw j is the sum of
// two seeded words, and a seeded word is three Lehmer values, each one
// multiplication with a precomputed power away from the seed, XORed with
// math/rand's table. Std computes those first 273 draws from the seed
// and the draw count alone. Draw 273 reads word 333, which draw 0 wrote:
// there Std fills the whole register once, applies the 273 writes it
// skipped, and from then on runs math/rand's own loop.
//
// So a Std is its seed, its draw count and, past 273 draws, a pointer
// to the register (4.9 KB, allocated once and kept across Seed). Replay
// repositions a stream by count, which is how checkpoints restore one.
// Copies of a Std that has drawn past 273 share that register, so copy
// only fresh or short streams.
//
// The zero value is not seeded; use NewStd or Seed. Std is not safe for
// concurrent use.
type Std struct {
	seed  uint64 // normalised to [1, stdMod)
	draws uint64
	reg   *stdReg // math/rand's register, valid once draws > stdTap
}

// stdReg is math/rand's register and its two read positions.
type stdReg struct {
	tap, feed int
	vec       [stdLen]int64
}

// NewStd returns a source positioned at the start of the stream
// rand.NewSource(seed) produces.
func NewStd(seed int64) *Std {
	s := &Std{}
	s.Seed(seed)
	return s
}

// Seed repositions the source at the start of the stream
// rand.NewSource(seed) produces. It applies math/rand's normalisation:
// the seed is taken modulo 2^31-1, negative remainders are wrapped, and
// zero becomes 89482311.
func (s *Std) Seed(seed int64) {
	seed %= stdMod
	if seed < 0 {
		seed += stdMod
	}
	if seed == 0 {
		seed = stdZero
	}
	s.seed = uint64(seed)
	s.draws = 0
}

// Draws returns how many values the source has produced since Seed.
func (s *Std) Draws() uint64 { return s.draws }

// Replay positions the source at draw n of its seed's stream, as if it
// had produced n values since Seed. Up to 273 it only sets the count;
// past it, it draws the difference, from the seed if n lies behind the
// current position. Int63 and Uint64 advance the stream alike, so a
// count restores a stream whatever mix of calls produced it.
func (s *Std) Replay(n uint64) {
	if n < s.draws {
		s.draws = 0
	}
	if s.draws < stdTap {
		s.draws = min(n, stdTap)
	}
	for s.draws < n {
		s.Uint64()
	}
}

// Uint64 returns the next 64 random bits.
func (s *Std) Uint64() uint64 {
	j := s.draws
	s.draws++
	if j < stdTap {
		return uint64(s.word(stdFeed-1-int(j)) + s.word(stdLen-1-int(j)))
	}
	if j == stdTap {
		s.fill()
	}
	r := s.reg
	r.tap--
	if r.tap < 0 {
		r.tap += stdLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += stdLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// fill builds the register as math/rand's would stand after the first
// 273 draws: every word seeded, and the feed words those draws wrote
// holding their sums.
func (s *Std) fill() {
	if s.reg == nil {
		s.reg = new(stdReg)
	}
	r := s.reg
	for i := range r.vec {
		r.vec[i] = s.word(i)
	}
	for j := range stdTap {
		r.vec[stdFeed-1-j] += r.vec[stdLen-1-j]
	}
	r.tap = stdLen - stdTap
	r.feed = stdFeed - stdTap
}

// word returns register word i as math/rand's seeding writes it: three
// consecutive Lehmer values packed at bit offsets 40, 20 and 0, XORed
// with the cooked table.
func (s *Std) word(i int) int64 {
	x := s.seed * stdPow[i] % stdMod
	u := x << 40
	x = x * stdMul % stdMod
	u ^= x << 20
	x = x * stdMul % stdMod
	u ^= x
	return int64(u) ^ stdCooked[i]
}

// Int63 returns the next 63 random bits as a non-negative int64.
func (s *Std) Int63() int64 { return int64(s.Uint64() & stdMask) }

var _ rand.Source64 = (*Std)(nil)
