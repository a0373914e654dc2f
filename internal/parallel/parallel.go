// Package parallel provides the worker-pool and seed-derivation
// primitives behind the concurrent experiment runner. The evaluation
// matrix (§4) is a grid of independent seeded simulations; this package
// fans such grids across goroutines while keeping results bit-identical
// to a serial run:
//
//   - ForEach hands out cell indices to a fixed pool of workers, so the
//     caller stores each result at its own index and the assembled output
//     never depends on completion order.
//   - Seed derives one RNG seed per cell from the base seed and a stable
//     cell key (splitmix64 over an FNV-1a hash), so a cell's randomness
//     depends only on its identity — never on how many workers ran or
//     which cells ran before it.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: values <= 0 mean "one worker
// per available CPU" (GOMAXPROCS), 1 means serial, n means n.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(0) … fn(n-1) across a pool of workers goroutines
// (resolved by Workers) and returns errors.Join of every non-nil error in
// index order. Every index runs even when earlier ones fail, so one bad
// cell cannot discard a sweep's completed work. With workers resolved to
// 1 the calls happen inline on the caller's goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachContext(context.Background(), workers, n, fn)
}

// ForEachContext is ForEach with cooperative cancellation: once ctx is
// canceled, indices not yet started are skipped and record the context's
// error instead of running — in-flight calls finish (fn is responsible
// for observing ctx itself if it can stop early). Completed indices keep
// their results, so a canceled sweep still returns the work it finished.
func ForEachContext(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	run := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		errs[i] = fn(i)
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
		return errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Seed derives a per-cell RNG seed from a base seed and a stable cell
// key: the key is hashed with FNV-1a, mixed with the base, and finalized
// with splitmix64. The result is a deterministic function of (base, key)
// alone, decorrelated across keys, and never 0 (0 means "use the
// default seed" to Scenario).
func Seed(base int64, key string) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	x := uint64(base) ^ h
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	return int64(x)
}
