package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on a share of a machine that other tenants load.
// From one minute to the next the same simulation takes up to 1.5x as
// long there, in CPU time as well as wall time: steal, a busy sibling
// hyperthread and shared caches slow every program on the share alike.
// A median over one run cannot remove a slowdown that lasts the whole
// run, so the benchmark reports times relative to a fixed reference
// kernel that it runs between its measurements:
//
//	reported = measured × refNominal / median(reference kernel, same run)
//
// That is the time the measurement would have taken on a host where the
// kernel takes refNominal. The kernel is the benchmark's own code and
// uses no program package, so a change to the program moves the
// reported times exactly as it moves the measured ones. It looks up
// pseudo-random keys in a Go map of 64Ki entries, half of them present:
// hashing and probing over a table the size of an L2 cache. It
// allocates nothing and the map holds no pointers, and a collection
// before the kernel runs finishes the program's outstanding collector
// work, so neither the program's heap nor its collector reaches the
// kernel's clock. Of four kernels tried on a 2-vCPU VM whose speed
// drifted (eight processes of 33 s, each alternating a small DARD
// simulation with every kernel), this one tracked the simulation best:
// the simulation's per-process median CPU time spread by 20%
// (interquartile range over median), its ratio to this kernel by 2.5%,
// and its ratio to a pointer chase through 4 MB or 256 KB, or to an
// arithmetic loop, by 6-9%.

// refNominal is the reference kernel's time on the reference host:
// about what it took, in CPU and in wall seconds, between simulations
// on a 2-vCPU VM with go1.24.
const refNominal = 0.025

const (
	refKeys  = 1 << 16 // map entries
	refSteps = 800_000 // lookups per kernel run
)

// refMap is the kernel's table, built once per process.
var refMap = sync.OnceValue(func() map[uint32]uint32 {
	m := make(map[uint32]uint32, refKeys)
	for i := uint32(0); i < refKeys; i++ {
		m[i] = i
	}
	return m
})

// refSink keeps the kernel's result live.
var refSink uint32

// refKernel is the reference work: refSteps lookups of pseudo-random
// keys below 2*refKeys in m.
func refKernel(m map[uint32]uint32) {
	s, x := uint32(0), uint64(5)
	for i := 0; i < refSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		s += m[uint32(x>>47)]
	}
	refSink = s
}

// hostRef collects a run's reference kernel timings.
type hostRef struct{ wall, cpu []float64 }

// samples runs the kernel n times, after one collection.
func (h *hostRef) samples(n int) {
	m := refMap()
	runtime.GC()
	for i := 0; i < n; i++ {
		w0, c0 := time.Now(), cpuSeconds()
		refKernel(m)
		h.cpu = append(h.cpu, cpuSeconds()-c0)
		h.wall = append(h.wall, time.Since(w0).Seconds())
	}
}

// cpuScale converts process CPU seconds to reference seconds.
func (h *hostRef) cpuScale() float64 { return refNominal / median(h.cpu) }

// wallScale converts wall seconds to reference seconds.
func (h *hostRef) wallScale() float64 { return refNominal / median(h.wall) }

// note describes the run's reference for the printed context.
func (h *hostRef) note() string {
	return fmt.Sprintf("host reference: n=%d kernel runs, median %.6g CPU s and %.6g wall s; times below are scaled by %.6g (CPU) and %.6g (wall) to a host where the kernel takes %g s",
		len(h.cpu), median(h.cpu), median(h.wall), h.cpuScale(), h.wallScale(), refNominal)
}
