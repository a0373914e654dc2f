package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dard/internal/topology"
)

func fatTreeLayout(t *testing.T, p int) *Layout {
	t.Helper()
	ft, err := topology.NewFatTree(topology.FatTreeConfig{P: p})
	if err != nil {
		t.Fatal(err)
	}
	return NewLayout(ft)
}

func TestLayoutFatTree(t *testing.T) {
	l := fatTreeLayout(t, 4)
	if l.NumHosts != 16 {
		t.Fatalf("NumHosts = %d", l.NumHosts)
	}
	if len(l.HostsByToR) != 8 {
		t.Errorf("ToRs = %d, want 8", len(l.HostsByToR))
	}
	if len(l.HostsByPod) != 4 {
		t.Errorf("pods = %d, want 4", len(l.HostsByPod))
	}
	if l.HostsPerPod() != 4 {
		t.Errorf("HostsPerPod = %d, want 4", l.HostsPerPod())
	}
	// Hosts 0 and 1 share a ToR; 0 and 2 share only the pod.
	if l.ToRByHost[0] != l.ToRByHost[1] {
		t.Error("hosts 0,1 should share a ToR")
	}
	if l.ToRByHost[0] == l.ToRByHost[2] {
		t.Error("hosts 0,2 should not share a ToR")
	}
	if l.PodByHost[0] != l.PodByHost[2] {
		t.Error("hosts 0,2 should share a pod")
	}
	if l.PodByHost[0] == l.PodByHost[4] {
		t.Error("hosts 0,4 should be in different pods")
	}
}

func TestRandomPattern(t *testing.T) {
	l := fatTreeLayout(t, 4)
	p := Random{L: l}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		d := p.PickDst(rng, 3)
		if d == 3 {
			t.Fatal("random pattern picked the source")
		}
		if d < 0 || d >= l.NumHosts {
			t.Fatalf("destination %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != l.NumHosts-1 {
		t.Errorf("random pattern reached %d destinations, want %d", len(seen), l.NumHosts-1)
	}
}

func TestStaggeredProportions(t *testing.T) {
	l := fatTreeLayout(t, 4)
	p := NewStaggered(l)
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	var sameToR, samePod, crossPod int
	for i := 0; i < n; i++ {
		d := p.PickDst(rng, 0)
		switch {
		case l.ToRByHost[d] == l.ToRByHost[0]:
			sameToR++
		case l.PodByHost[d] == l.PodByHost[0]:
			samePod++
		default:
			crossPod++
		}
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.02 {
			t.Errorf("%s fraction = %.3f, want %.2f", name, frac, want)
		}
	}
	check("same-ToR", sameToR, 0.5)
	check("same-pod", samePod, 0.3)
	check("cross-pod", crossPod, 0.2)
}

func TestStridePattern(t *testing.T) {
	l := fatTreeLayout(t, 4)
	step := l.HostsPerPod()
	p := Stride{N: l.NumHosts, Step: step}
	for src := 0; src < l.NumHosts; src++ {
		d := p.PickDst(nil, src)
		if d == src {
			t.Fatalf("stride mapped %d to itself", src)
		}
		if l.PodByHost[d] == l.PodByHost[src] {
			t.Errorf("stride(%d) from %d stays in pod", step, src)
		}
	}
	// Stride is a permutation: every host receives exactly once.
	counts := make([]int, l.NumHosts)
	for src := 0; src < l.NumHosts; src++ {
		counts[p.PickDst(nil, src)]++
	}
	for h, c := range counts {
		if c != 1 {
			t.Errorf("host %d receives %d stride flows, want 1", h, c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	l := fatTreeLayout(t, 4)
	cfg := Config{Pattern: Random{L: l}, RatePerHost: 2, Duration: 10, Seed: 42}
	a, err := Generate(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic flow count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	l := fatTreeLayout(t, 4)
	cfg := Config{Pattern: Random{L: l}, RatePerHost: 5, Duration: 20, Seed: 7}
	flows, err := Generate(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	// Expected count: 16 hosts * 5/s * 20s = 1600; allow 15% slack.
	want := 16.0 * 5 * 20
	if f := float64(len(flows)); f < want*0.85 || f > want*1.15 {
		t.Errorf("flow count %d far from Poisson expectation %g", len(flows), want)
	}
	last := -1.0
	for i, f := range flows {
		if f.ID != i {
			t.Fatalf("flow IDs not dense: flows[%d].ID = %d", i, f.ID)
		}
		if f.Arrival < last {
			t.Fatal("flows not sorted by arrival")
		}
		last = f.Arrival
		if f.Arrival < 0 || f.Arrival >= cfg.Duration {
			t.Fatalf("arrival %g outside window", f.Arrival)
		}
		if f.Src == f.Dst {
			t.Fatal("self flow generated")
		}
		if f.SizeBits != DefaultSizeBytes*8 {
			t.Fatalf("size = %g, want default 128MB", f.SizeBits)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	l := fatTreeLayout(t, 4)
	if _, err := Generate(l, Config{}); err == nil {
		t.Error("nil pattern should fail")
	}
	if _, err := Generate(l, Config{Pattern: Random{L: l}, RatePerHost: 0, Duration: 1}); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := Generate(l, Config{Pattern: Random{L: l}, RatePerHost: 1, Duration: -1}); err == nil {
		t.Error("negative duration should fail")
	}
	for _, cfg := range []Config{
		{RatePerHost: math.NaN(), Duration: 1},
		{RatePerHost: math.Inf(1), Duration: 1},
		{RatePerHost: 1, Duration: math.NaN()},
		{RatePerHost: 1, Duration: math.Inf(1)},
	} {
		cfg.Pattern = Random{L: l}
		if _, err := Generate(l, cfg); err == nil || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("rate %g, duration %g: err %v, want a finiteness error", cfg.RatePerHost, cfg.Duration, err)
		}
	}
	tiny := &Layout{NumHosts: 1}
	if _, err := Generate(tiny, Config{Pattern: Random{L: tiny}, RatePerHost: 1, Duration: 1}); err == nil {
		t.Error("single-host layout should fail")
	}
}

func TestStaggeredOnClos(t *testing.T) {
	cl, err := topology.NewClos(topology.ClosConfig{DI: 4, DA: 4, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(cl)
	p := NewStaggered(l)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		d := p.PickDst(rng, 0)
		if d == 0 || d >= l.NumHosts {
			t.Fatalf("bad destination %d", d)
		}
	}
}

// perHostGenerate is Generate as it was first written, one fresh
// math/rand source per host and a stable sort: the oracle for the
// merged stream of detrand.Std sources Generate drains.
func perHostGenerate(l *Layout, cfg Config) []Flow {
	var flows []Flow
	for src := 0; src < l.NumHosts; src++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(src)*7919))
		t := 0.0
		for {
			t += rng.ExpFloat64() / cfg.RatePerHost
			if t >= cfg.Duration {
				break
			}
			if dst := cfg.Pattern.PickDst(rng, src); dst != src {
				flows = append(flows, Flow{Src: src, Dst: dst, SizeBits: cfg.SizeBytes * 8, Arrival: t})
			}
		}
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Arrival < flows[j].Arrival })
	for i := range flows {
		flows[i].ID = i
	}
	return flows
}

// TestGenerateMatchesPerHostSources pins every flow Generate makes to
// the per-host math/rand streams it has always drawn from, for each
// pattern and for seeds math/rand normalises specially. The p=4 case
// runs hosts 50 flows/s for 10 s, so their streams pass draw 273, where
// detrand.Std fills its register, and 607, where the register wraps.
func TestGenerateMatchesPerHostSources(t *testing.T) {
	for _, c := range []struct {
		p              int
		rate, duration float64
	}{{8, 5, 4}, {4, 50, 10}} {
		l := fatTreeLayout(t, c.p)
		patterns := []Pattern{Random{L: l}, NewStaggered(l), Stride{N: l.NumHosts, Step: l.HostsPerPod()}}
		for _, p := range patterns {
			for _, seed := range []int64{0, 1, -7, 42, 1<<31 - 1, -(1<<31 - 1) * 3, 1 << 40} {
				cfg := Config{Pattern: p, RatePerHost: c.rate, Duration: c.duration, SizeBytes: 1 << 20, Seed: seed}
				got, err := Generate(l, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := perHostGenerate(l, cfg)
				if len(got) != len(want) {
					t.Fatalf("p=%d %s seed %d: %d flows, per-host sources make %d", c.p, p.Name(), seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("p=%d %s seed %d: flow %d is %+v, per-host sources make %+v", c.p, p.Name(), seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestGenerateAllocs checks that Generate's allocation follows the
// flows it makes, not the host count: on a p=32 layout (8,192 hosts)
// with about one flow per 500 hosts it allocates about what it does on
// p=4 (16 hosts), plus the flow slice. A fresh 5 KB source per host
// would cost 40 MB here.
func TestGenerateAllocs(t *testing.T) {
	bytes := func(l *Layout) (float64, int) {
		cfg := Config{Pattern: Stride{N: l.NumHosts, Step: l.HostsPerPod()}, RatePerHost: 1, Duration: 2e-3, Seed: 5}
		var flows []Flow
		var before, after runtime.MemStats
		const runs = 4
		runtime.ReadMemStats(&before)
		for range runs {
			var err error
			if flows, err = Generate(l, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(flows)
	}
	small, _ := bytes(fatTreeLayout(t, 4))
	big, n := bytes(fatTreeLayout(t, 32))
	if n == 0 {
		t.Fatal("p=32 layout generated no flows; the bound below would not see the flow slice")
	}
	flowBytes := float64(4 * n * int(unsafe.Sizeof(Flow{})))
	if big > small+flowBytes+4096 {
		t.Errorf("Generate allocates %.0f B on 8,192 hosts (%d flows) vs %.0f B on 16: more than the flows' %.0f B, so it scales with hosts",
			big, n, small, flowBytes)
	}
}

// BenchmarkGenerate times the batch workload on the serve-jobs shape
// (p=8, 128 hosts) and on the paper's p=32 fabric, about one flow per
// host each.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range []int{8, 32} {
		ft, err := topology.NewFatTree(topology.FatTreeConfig{P: p})
		if err != nil {
			b.Fatal(err)
		}
		l := NewLayout(ft)
		cfg := Config{Pattern: Random{L: l}, RatePerHost: 5, Duration: 0.2, Seed: 11}
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Generate(l, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
