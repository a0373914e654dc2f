// Package detrand provides the simulator's deterministic random
// sources. Both implement math/rand.Source64, so rand.New(src) layers
// the usual distributions on top, and rand.Rand keeps no hidden state
// for the methods the simulator uses (Float64, Intn, ExpFloat64, Perm
// read straight through to the source): the source's position is the
// whole stream's.
//
//   - Source is splitmix64 (Steele, Lea & Flood, "Fast Splittable
//     Pseudorandom Number Generators", OOPSLA 2014): a 64-bit counter
//     advanced by a fixed odd increment and scrambled by two
//     xor-multiply rounds. Its entire state is one exported uint64, so a
//     stream can be frozen with State and resumed bit-identically with
//     SetState, with no replay and no hidden buffering. The open-loop
//     workload uses it.
//   - Std reproduces math/rand's default source stream for stream
//     (rand.NewSource(seed)), but seeds in constant time and fills its
//     607-word register only as the generator reads it. Every workload,
//     golden and checkpoint that predates Source was drawn from that
//     stream, so the batch workload generator, the engines' RNGs and
//     the control-channel faults use Std to keep them bit-identical.
//
// Neither is cryptographic; they exist to drive simulation workloads
// reproducibly.
package detrand

import "math/rand"

// Source is a splitmix64 stream. It implements math/rand.Source64.
//
//dardsnap:fields encoder=Source.State decoder=Source.SetState
type Source struct {
	state uint64
}

// NewSeeded returns a source positioned at the start of the seed's
// stream.
func NewSeeded(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed repositions the source at the start of the seed's stream.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// State returns the stream position for checkpointing.
func (s *Source) State() uint64 { return s.state }

// SetState restores a position captured by State.
func (s *Source) SetState(v uint64) { s.state = v }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns the next 63 random bits as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

var _ rand.Source64 = (*Source)(nil)
