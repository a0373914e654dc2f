package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the average of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the value is one of the last few samples and says nothing
// stable about the tail.
const minBeyond = 10

// quantile is a nearest-rank percentile with the sample it came from.
type quantile struct {
	Value  float64
	N      int // samples in the distribution
	Beyond int // samples strictly above the percentile's rank
}

var errThinTail = errors.New("fewer than ten samples beyond the percentile")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses, with errThinTail, a percentile that fewer than minBeyond
// samples lie beyond.
func percentile(xs []float64, p float64) (quantile, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return quantile{}, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	q := quantile{N: n, Beyond: n - rank}
	if q.Beyond < minBeyond {
		return q, fmt.Errorf("p%g of %d samples: %w", p*100, n, errThinTail)
	}
	q.Value = sortedCopy(xs)[rank-1]
	return q, nil
}

// ledger counts attempted and failed operations. An operation fails
// when it returns an error, ends in a wrong state, or its output
// disagrees with a reference; each failure keeps its reason.
type ledger struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// op records one attempted operation; a non-nil err marks it failed.
func (l *ledger) op(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		l.reasons = append(l.reasons, err.Error())
	}
}

// check records one correctness check: ok false fails it with the
// formatted reason.
func (l *ledger) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf(format, args...)
	}
	l.op(err)
}

func (l *ledger) counts() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempted, l.failed
}

func (l *ledger) failures() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reasons...)
}

// spanID identifies a recorded span; 0 is "no parent".
type spanID int64

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	ID     spanID  `json:"id"`
	Parent spanID  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    string  `json:"job,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// spanLog holds the traced run's spans in memory until the run ends. A
// nil *spanLog records nothing, so untraced runs take the same code path
// and pay only for the clock reads their metrics need.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// timer is an open span (or, on a nil log, a bare stopwatch).
type timer struct {
	log   *spanLog
	id    spanID
	job   string
	start time.Time
}

// begin opens a span named name under parent, tagged with job.
func (l *spanLog) begin(name string, parent spanID, job string) *timer {
	t := &timer{log: l, job: job}
	if l != nil {
		l.mu.Lock()
		t.id = spanID(len(l.spans) + 1)
		// Reserve the slot so child spans opened before end() get
		// later IDs and the log stays in opening order.
		l.spans = append(l.spans, span{ID: t.id, Parent: parent, Name: name, Job: job})
		l.mu.Unlock()
	}
	t.start = time.Now()
	return t
}

// ID is the span's identifier, for opening children.
func (t *timer) ID() spanID { return t.id }

// setJob tags the span with a job ID learned after it opened.
func (t *timer) setJob(job string) { t.job = job }

// end closes the span and returns its duration in seconds.
func (t *timer) end() float64 {
	stop := time.Now()
	d := stop.Sub(t.start).Seconds()
	if l := t.log; l != nil {
		l.mu.Lock()
		s := &l.spans[t.id-1]
		s.Job = t.job
		s.Start = t.start.Sub(l.epoch).Seconds()
		s.End = stop.Sub(l.epoch).Seconds()
		l.mu.Unlock()
	}
	return d
}

// selfDurations returns, per span name, each closed span's self time:
// its duration minus the time its child spans cover.
func (l *spanLog) selfDurations() map[string][]float64 {
	out := map[string][]float64{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make([]float64, len(l.spans)+1)
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.seconds()
		}
	}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], s.seconds()-children[s.ID])
	}
	return out
}

// write emits the spans as JSON lines in opening order.
func (l *spanLog) write(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// cpuSeconds returns the CPU time the process has used, user plus
// system. On a single-goroutine simulation it is close to wall time on
// an idle host, and unlike wall time it does not grow when the
// hypervisor steals the CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // surfaces as an unmeasured metric
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// allocated returns the bytes the process has allocated so far.
func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSS returns the process's peak resident set in bytes. Unlike
// runtime.MemStats.Sys, which grows in steps of about 4 MB as the heap
// takes memory from the OS, it counts only the pages the process
// touched.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // surfaces as an unmeasured metric
	}
	return float64(ru.Maxrss) * 1024 // kilobytes on Linux
}
