package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	q, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100: %v", err)
	}
	if q.Value != 90 || q.N != 100 || q.Beyond != 10 {
		t.Errorf("p90 of 1..100 = %+v, want value 90, n 100, 10 beyond", q)
	}
	q, err = percentile(xs[:99], 0.9)
	if !errors.Is(err, errThinTail) {
		t.Fatalf("p90 of 99 samples: err %v, want errThinTail", err)
	}
	if q.N != 99 || q.Beyond != 9 {
		t.Errorf("refused p90 reports %+v, want n 99, 9 beyond", q)
	}
	if _, err := percentile(xs[:10], 0.5); !errors.Is(err, errThinTail) {
		t.Errorf("p50 of 10 samples: err %v, want errThinTail", err)
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Error("p100 accepted")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestLedgerCountsFailures(t *testing.T) {
	var l ledger
	l.op(nil)
	l.op(errors.New("submit: 500"))
	l.check(true, "unused")
	l.check(false, "report %d differs", 7)
	attempted, failed := l.counts()
	if attempted != 4 || failed != 2 {
		t.Fatalf("counts = %d attempted, %d failed; want 4, 2", attempted, failed)
	}
	if got := strings.Join(l.failures(), "|"); got != "submit: 500|report 7 differs" {
		t.Errorf("failures = %q", got)
	}

	res := newResult()
	res.ops.op(nil)
	res.ops.check(false, "traced report differs")
	line, err := summary(res, endToEnd[:1], map[string]float64{"setup_s": 0.5}, true)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != 2 || out.Failed != 1 || out.Metrics["setup_s"] != (metricValue{0.5, "s"}) {
		t.Errorf("summary = %s", line)
	}
	if _, err := summary(res, endToEnd[:2], map[string]float64{"setup_s": 0.5}, true); err == nil {
		t.Error("summary accepted a missing end-to-end metric")
	}
	if _, err := summary(newResult(), endToEnd[:1], map[string]float64{"setup_s": 1}, true); err == nil {
		t.Error("summary accepted a run with no operations")
	}
}

func TestSpanRecord(t *testing.T) {
	l := newSpanLog()
	root := l.begin("job", 0, "")
	child := l.begin("serve.submit", root.ID(), "")
	time.Sleep(2 * time.Millisecond)
	child.setJob("0/job-1")
	childSecs := child.end()
	root.setJob("0/job-1")
	rootSecs := root.end()
	if childSecs <= 0 || rootSecs < childSecs {
		t.Fatalf("durations: root %v, child %v", rootSecs, childSecs)
	}

	var buf bytes.Buffer
	if err := l.write(&buf); err != nil {
		t.Fatal(err)
	}
	var got []span
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		got = append(got, s)
	}
	if len(got) != 2 {
		t.Fatalf("%d spans written, want 2", len(got))
	}
	r, c := got[0], got[1]
	if r.Name != "job" || r.Parent != 0 || r.Job != "0/job-1" {
		t.Errorf("root span %+v", r)
	}
	if c.Name != "serve.submit" || c.Parent != r.ID || c.Job != "0/job-1" {
		t.Errorf("child span %+v", c)
	}
	if !(r.Start <= c.Start && c.Start < c.End && c.End <= r.End) {
		t.Errorf("child [%v, %v] not inside root [%v, %v]", c.Start, c.End, r.Start, r.End)
	}
	self := l.selfDurations()
	if want := r.seconds() - c.seconds(); math.Abs(self["job"][0]-want) > 1e-12 {
		t.Errorf("root self time %v, want %v", self["job"][0], want)
	}

	var none *spanLog // untraced: a stopwatch that records nothing
	if secs := none.begin("x", 0, "").end(); secs < 0 {
		t.Errorf("nil log duration %v", secs)
	}
	if len(none.selfDurations()) != 0 {
		t.Error("nil log recorded spans")
	}
}

//go:noinline
func busyLoop(d time.Duration) uint64 {
	var x uint64 = 1
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

var sink any

func TestProfileFoldCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	sink = busyLoop(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	totals, err := p.fold("samples", func(stack []string) string {
		for _, fn := range stack {
			if strings.HasSuffix(fn, ".busyLoop") {
				return "busy"
			}
		}
		return "rest"
	})
	if err != nil {
		t.Fatal(err)
	}
	if totals["busy"] < 20 {
		t.Fatalf("only %d samples in busyLoop (totals %v)", totals["busy"], totals)
	}
	sh := shares(totals)
	if sh["busy"] < 0.7 {
		t.Errorf("busyLoop share %.3f, want most of the profile", sh["busy"])
	}
	if s := sh["busy"] + sh["rest"]; math.Abs(s-1) > 1e-9 {
		t.Errorf("shares sum to %v", s)
	}
}

//go:noinline
func allocLoop(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, make([]byte, 64<<10))
	}
	return out
}

func TestProfileFoldAllocs(t *testing.T) {
	before := runtime.MemProfileRate
	runtime.MemProfileRate = 4096
	defer func() { runtime.MemProfileRate = before }()
	sink = allocLoop(256) // 16 MiB
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	totals, err := p.fold("alloc_space", func(stack []string) string {
		for _, fn := range stack {
			if strings.HasSuffix(fn, ".allocLoop") {
				return "alloc"
			}
		}
		return "rest"
	})
	if err != nil {
		t.Fatal(err)
	}
	if mib := float64(totals["alloc"]) / (1 << 20); mib < 12 || mib > 20 {
		t.Errorf("allocLoop allocated %.1f MiB by the profile, want about 16", mib)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{0x0a, 0x05, 0x01}, {0x0b}, {0x1f, 0x8b, 0x00}} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("parseProfile(%x) accepted garbage", data)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "dard/internal/flowsim.(*Sim).recompute", "dard.(*Session).Run"}, "flowsim"},
		{[]string{"dard/internal/dard.(*Collector).assembleSync.func1", "dard/internal/flowsim.(*Sim).Run"}, "dard"},
		{[]string{"dard.Scenario.Run", "main.main"}, "facade"},
		{[]string{"dard/internal/metrics.(*Sample).Mean", "dard.(*Report).MeanTransferTime"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.bgsweep"}, "gc"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"net/http.(*response).Write", "dard/internal/serve.(*Server).handleEvents"}, "serve"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics this program
// prints.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
}

// TestHostRefScales checks that reported times are measured times over
// the run's median kernel time, in units of refNominal, and that the
// kernel allocates nothing for the program's collector to see.
func TestHostRefScales(t *testing.T) {
	h := &hostRef{cpu: []float64{0.2, 0.1, 0.12}, wall: []float64{0.05, 0.025}}
	if got, want := h.cpuScale(), refNominal/0.12; math.Abs(got-want) > 1e-12 {
		t.Errorf("cpuScale = %v, want %v", got, want)
	}
	if got, want := h.wallScale(), refNominal/0.0375; math.Abs(got-want) > 1e-12 {
		t.Errorf("wallScale = %v, want %v", got, want)
	}
	m := refMap()
	if a := testing.AllocsPerRun(3, func() { refKernel(m) }); a != 0 {
		t.Errorf("reference kernel allocates %v times per run, want 0", a)
	}
	h = &hostRef{}
	h.samples(2)
	if len(h.cpu) != 2 || len(h.wall) != 2 || !(h.wall[0] > 0) {
		t.Errorf("samples(2) recorded cpu %v wall %v", h.cpu, h.wall)
	}
}
