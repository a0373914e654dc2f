// Package detrand provides the simulator's deterministic random source,
// Std: math/rand's default stream (rand.NewSource(seed)) bit for bit,
// seeded in constant time and carrying a 607-word register only once a
// stream passes 273 draws. It implements math/rand.Source64, so
// rand.New(src) layers the usual distributions on top, and rand.Rand
// keeps no hidden state for the methods the simulator uses (Float64,
// Intn, ExpFloat64, Perm read straight through to the source): the
// source's position is the whole stream's.
//
// Every workload, golden and checkpoint was drawn from that stream: the
// workload generator (one stream per source host, batch and streamed
// alike), the engines' RNGs and the control-channel faults all use Std.
// A stream's position is its seed and its draw count (Std.Draws), so a
// checkpoint records the count and a restore replays to it
// (Std.Replay).
//
// Std is not cryptographic; it exists to drive simulation workloads
// reproducibly.
package detrand
