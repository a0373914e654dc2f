// Package seedflow exercises the seed-provenance analyzer. Note the
// package is not on the simulation list, so wallclock stays out of the
// way and time-derived seeds are flagged by seedflow alone.
package seedflow

import (
	"math/rand"
	"time"

	"dard/internal/detrand"
)

type Params struct {
	Seed int64
}

// CellSeed stands in for the real derivation helper: seed-named calls
// are trusted sources.
func CellSeed(base int64, cell string) int64 { return base + int64(len(cell)) }

func hash(s string) int64 { return int64(len(s)) }

func good(p Params, seed int64, src int) {
	_ = rand.New(rand.NewSource(seed))               // explicit seed parameter
	_ = rand.NewSource(p.Seed)                       // seed-named field
	_ = rand.NewSource(1)                            // literal: explicit and reproducible
	_ = rand.NewSource(CellSeed(p.Seed, "cell"))     // derivation helper
	_ = rand.NewSource(p.Seed + int64(src)*7919)     // seed mixed with a stream index
	_ = rand.New(rand.NewSource(CellSeed(seed, ""))) // nested constructor form
}

func bad(p Params, i int, now time.Time) {
	_ = rand.NewSource(time.Now().UnixNano()) // want `non-seed call or wall-clock read`
	_ = rand.NewSource(now.UnixNano())        // want `non-seed call or wall-clock read`
	_ = rand.NewSource(hash("state"))         // want `non-seed call or wall-clock read`
	_ = rand.NewSource(int64(i))              // want `does not trace back to an explicit seed`
	_ = rand.New(rand.NewSource(int64(i)))    // want `does not trace back to an explicit seed`
}

// detrand's constructors and Seed methods are seeded calls too: moving
// a stream from rand.NewSource onto detrand keeps its seed checked.
func goodDetrand(p Params, seed int64, src int) {
	_ = rand.New(detrand.NewStd(seed))           // inner constructor checks its own seed
	_ = detrand.NewStd(CellSeed(p.Seed, "cell")) // derivation helper
	seeded := detrand.NewStd(p.Seed)
	seeded.Seed(p.Seed + int64(src)*7919) // reseed a reused source per stream
	_ = rand.New(seeded)                  // seed-named source, as before
	var held detrand.Std
	held.Seed(seed) // a source held by value
}

func badDetrand(i int, now time.Time) {
	_ = detrand.NewStd(int64(i))                // want `detrand.NewStd seed does not trace back`
	_ = detrand.NewStd(now.UnixNano())          // want `detrand.NewStd seed contains a non-seed call`
	_ = rand.New(detrand.NewStd(int64(i)))      // want `detrand.NewStd seed does not trace back`
	_ = rand.New(detrand.NewStd(hash("state"))) // want `detrand.NewStd seed contains a non-seed call`
	std := detrand.NewStd(1)
	std.Seed(int64(i))              // want `detrand.Std.Seed seed does not trace back`
	std.Seed(time.Now().UnixNano()) // want `detrand.Std.Seed seed contains a non-seed call or wall-clock read`
	_ = rand.New(std)               // want `rand.New seed does not trace back`
	var held detrand.Std
	held.Seed(int64(i)) // want `detrand.Std.Seed seed does not trace back`
}

func suppressed(i int) {
	//dardlint:seedflow fixture: generator feeds a non-deterministic smoke test on purpose
	_ = rand.NewSource(int64(i))
}
