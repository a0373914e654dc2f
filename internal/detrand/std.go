package detrand

import "math/rand"

const (
	stdLen  = 607       // register words
	stdTap  = 273       // lag of the second tap
	stdMod  = 1<<31 - 1 // Lehmer modulus, the prime 2^31-1
	stdMul  = 48271     // Lehmer multiplier
	stdMask = 1<<63 - 1 // Int63's mask
	stdZero = 89482311  // math/rand's stand-in for a zero seed
	stdMark = stdLen/64 + 1
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

// Std is math/rand's default generator with O(1) seeding: for every
// seed its stream is bit for bit the one rand.NewSource(seed) produces,
// through Int63 and Uint64 alike.
//
// math/rand seeds its additive lagged-Fibonacci register by running a
// Lehmer generator 1,841 steps to fill all 607 words, although a
// workload host may draw only a handful of numbers. Std instead fills a
// word the first time the generator reads it: word i takes the Lehmer
// values 21+3i to 23+3i, reached by one multiplication with a
// precomputed power, and XORs in math/rand's table for that word.
// Seeding only resets the tap positions and the materialised mask, so a
// caller that needs many short streams can reseed one Std instead of
// allocating a 5 KB source per stream.
//
// The zero value is not seeded; use NewStd or Seed. Std is not safe for
// concurrent use.
type Std struct {
	tap, feed int
	// cold counts the draws left until the feed index has read, and so
	// filled, every word; from then on Uint64 is math/rand's own loop.
	cold int
	seed uint64          // normalised to [1, stdMod)
	have [stdMark]uint64 // bit i: word i filled since the last Seed
	vec  [stdLen]int64   // the lagged-Fibonacci register
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
	s.tap = 0
	s.feed = stdLen - stdTap
	seed %= stdMod
	if seed < 0 {
		seed += stdMod
	}
	if seed == 0 {
		seed = stdZero
	}
	s.seed = uint64(seed)
	s.cold = stdLen
	s.have = [stdMark]uint64{}
}

// Uint64 returns the next 64 random bits.
func (s *Std) Uint64() uint64 {
	if s.cold > 0 {
		return s.coldUint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += stdLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += stdLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// coldUint64 is Uint64 while some register word may be unread: it
// fills each word on its first read.
func (s *Std) coldUint64() uint64 {
	s.cold--
	s.tap--
	if s.tap < 0 {
		s.tap += stdLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += stdLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// word returns register word i, computing it on first read as
// math/rand's seeding writes it: three consecutive Lehmer values packed
// at bit offsets 40, 20 and 0, XORed with the cooked table.
func (s *Std) word(i int) int64 {
	if s.have[i>>6]&(1<<(i&63)) == 0 {
		s.have[i>>6] |= 1 << (i & 63)
		x := s.seed * stdPow[i] % stdMod
		u := x << 40
		x = x * stdMul % stdMod
		u ^= x << 20
		x = x * stdMul % stdMod
		u ^= x
		s.vec[i] = int64(u) ^ stdCooked[i]
	}
	return s.vec[i]
}

// Int63 returns the next 63 random bits as a non-negative int64.
func (s *Std) Int63() int64 { return int64(s.Uint64() & stdMask) }

var _ rand.Source64 = (*Std)(nil)
