package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// quick runs everything at the smallest scale.
var quickParams = Quick()

func TestTable1ToyConvergence(t *testing.T) {
	r, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["moves"] != 2 {
		t.Errorf("toy example converged in %g moves, want 2", r.Values["moves"])
	}
	if r.Values["nash"] != 1 {
		t.Error("toy example did not reach Nash")
	}
	if got := r.Values["round0/minBoNF_Gbps"]; math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("initial min BoNF = %g, want 1/3", got)
	}
	if !strings.Contains(r.Text, "converged") {
		t.Error("rendering missing convergence line")
	}
}

func TestTables2And3Shape(t *testing.T) {
	r, err := Tables2And3()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"downhillEntries": 4,
		"uphillEntries":   2,
		"flatEntries":     6,
		"hostAddresses":   4,
	}
	for k, v := range want {
		if r.Values[k] != v {
			t.Errorf("%s = %g, want %g", k, r.Values[k], v)
		}
	}
	if !strings.Contains(r.Text, "10.4.0.0/14") {
		t.Errorf("rendering missing the paper's core prefix:\n%s", r.Text)
	}
}

func TestFigure4Shape(t *testing.T) {
	r, err := Figure4(quickParams)
	if err != nil {
		t.Fatal(err)
	}
	// At some rate, stride improvement must be clearly positive (DARD's
	// headline), and no improvement should be catastrophically negative.
	bestStride := math.Inf(-1)
	for k, v := range r.Values {
		if strings.Contains(k, "stride") && v > bestStride {
			bestStride = v
		}
		if v < -0.30 {
			t.Errorf("%s = %.1f%%: DARD should never be drastically worse than ECMP", k, 100*v)
		}
	}
	if bestStride < 0.05 {
		t.Errorf("peak stride improvement = %.1f%%, want >= 5%%", 100*bestStride)
	}
}

// studyRuns holds each study's quick-scale results, keyed by the ID of
// its first artifact, so tests that check different artifacts of one
// study share a single run of it.
var studyRuns = struct {
	sync.Mutex
	byStudy map[string]map[string]*Result
}{byStudy: map[string]map[string]*Result{}}

// runStudy runs the study that renders artifact id at the quick scale,
// once per test binary, and indexes its results by artifact ID.
func runStudy(t *testing.T, id string) map[string]*Result {
	t.Helper()
	s, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	studyRuns.Lock()
	defer studyRuns.Unlock()
	key := s.Artifacts[0].ID
	if byID, ok := studyRuns.byStudy[key]; ok {
		return byID
	}
	results, err := s.Run(quickParams)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Result, len(results))
	for _, r := range results {
		byID[expTag(r.ID)] = r
	}
	studyRuns.byStudy[key] = byID
	return byID
}

// TestFigure5And6Testbed checks Figure 5 (packet engine) and Figure 6
// (flow engine).
func TestFigure5And6Testbed(t *testing.T) {
	r5 := runStudy(t, "figure5")["figure5"]
	if r5.Values["DARD/mean"] > r5.Values["ECMP/mean"]*1.10 {
		t.Errorf("packet-level DARD mean %.2fs should not trail ECMP %.2fs",
			r5.Values["DARD/mean"], r5.Values["ECMP/mean"])
	}

	r6, err := Figure6(quickParams)
	if err != nil {
		t.Fatal(err)
	}
	// Stability: 90% of flows switch at most 3 times (paper's Fig. 6).
	for _, pat := range []string{"random", "staggered", "stride"} {
		if p90 := r6.Values[pat+"/p90"]; p90 > 3 {
			t.Errorf("%s p90 path switches = %g, want <= 3", pat, p90)
		}
	}
	// Staggered flows mostly stay put.
	if r6.Values["staggered/p90"] > r6.Values["stride/max"] {
		t.Error("staggered flows should switch no more than stride flows")
	}
}

// TestTable4Shape checks Table 4 and that Figure 7 reads its cells.
func TestTable4Shape(t *testing.T) {
	ft := runStudy(t, "table4")
	r := ft["table4"]
	// Stride: DARD beats ECMP; the centralized scheduler is at least
	// comparable to ECMP.
	ecmp := r.Values["p=4/stride/ECMP"]
	dd := r.Values["p=4/stride/DARD"]
	sa := r.Values["p=4/stride/SimulatedAnnealing"]
	if dd >= ecmp {
		t.Errorf("stride: DARD %.2fs not better than ECMP %.2fs", dd, ecmp)
	}
	if sa > ecmp*1.05 {
		t.Errorf("stride: centralized %.2fs worse than ECMP %.2fs", sa, ecmp)
	}
	// DARD stays within reach of the centralized scheduler (<10%% in
	// the paper; allow slack at this tiny scale).
	if dd > sa*1.35 {
		t.Errorf("stride: DARD %.2fs too far from centralized %.2fs", dd, sa)
	}
	// At the quick scale BigP is in FatTreeP, so Figure 7 is Table 4's
	// p=4 cells.
	if got := ft["figure7"].Values["stride/DARD/mean"]; got != dd {
		t.Errorf("Figure 7 stride/DARD mean %g != Table 4's %g", got, dd)
	}
}

// TestTable5Shape checks Table 5 and that Figure 8 reads its cells.
func TestTable5Shape(t *testing.T) {
	ft := runStudy(t, "table5")
	for k, v := range ft["table5"].Values {
		if strings.HasSuffix(k, "/p90") && v > 3 {
			t.Errorf("%s = %g, want <= 3 (little path oscillation)", k, v)
		}
	}
	if got, want := ft["figure8"].Values["stride/max"], ft["table5"].Values["p=4/stride/max"]; got != want {
		t.Errorf("Figure 8 stride max %g != Table 5's %g", got, want)
	}
}

func TestClosAndThreeTier(t *testing.T) {
	clos := runStudy(t, "table6")
	ecmp := clos["table6"].Values["D=4/stride/ECMP"]
	dd := clos["table6"].Values["D=4/stride/DARD"]
	if dd >= ecmp {
		t.Errorf("Clos stride: DARD %.2fs not better than ECMP %.2fs", dd, ecmp)
	}
	for k, v := range clos["table7"].Values {
		if strings.HasSuffix(k, "/p90") && v > 3 {
			t.Errorf("Clos %s = %g, want <= 3", k, v)
		}
	}
	tt := runStudy(t, "figure11")
	r11 := tt["figure11"]
	if r11.Values["stride/DARD/mean"] >= r11.Values["stride/ECMP/mean"] {
		t.Error("three-tier stride: DARD should beat ECMP")
	}
	for k, v := range tt["figure12"].Values {
		if strings.HasSuffix(k, "/p90") && v > 3 {
			t.Errorf("three-tier %s = %g, want <= 3", k, v)
		}
	}
}

func TestFigure15OverheadShape(t *testing.T) {
	r, err := Figure15(quickParams)
	if err != nil {
		t.Fatal(err)
	}
	// Centralized overhead grows with workload.
	lo := r.Values["rate=0.10/Centralized_MBps"]
	hi := r.Values["rate=2.00/Centralized_MBps"]
	if hi <= lo {
		t.Errorf("centralized overhead should grow with load: %.4f !> %.4f", hi, lo)
	}
	// DARD overhead is bounded by the all-pairs probing cost of the
	// topology; at p=8 with the scaled edge that bound is small.
	if d := r.Values["rate=2.00/DARD_MBps"]; d > 10 {
		t.Errorf("DARD overhead %.2f MB/s exceeds any plausible topology bound", d)
	}
}

func TestTheorem2Registry(t *testing.T) {
	r, err := NashConvergence(20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["allConvergedOK"] != 1 {
		t.Error("not all dynamics converged")
	}
	if r.Values["maxMoves"] <= 0 {
		t.Error("suspicious: zero moves across all trials")
	}
}

func TestEngineScale(t *testing.T) {
	r, err := EngineScale(quickParams)
	if err != nil {
		t.Fatal(err)
	}
	if r.Values["p=4/flows"] <= 0 {
		t.Error("no flows simulated at p=4")
	}
	if r.Values["p=4/wall_s"] <= 0 {
		t.Error("wall clock not measured")
	}
}

func TestRegistryComplete(t *testing.T) {
	seen := make(map[string]bool)
	for _, s := range Studies() {
		if s.Run == nil || len(s.Artifacts) == 0 {
			t.Errorf("study %v incomplete", s.Artifacts)
		}
		for _, a := range s.Artifacts {
			if seen[a.ID] {
				t.Errorf("duplicate artifact ID %q", a.ID)
			}
			seen[a.ID] = true
			if a.Description == "" {
				t.Errorf("artifact %q has no description", a.ID)
			}
		}
	}
	if len(seen) != 22 {
		t.Fatalf("registry has %d artifacts, want 22", len(seen))
	}
	s, err := Find("table5")
	if err != nil {
		t.Fatal(err)
	}
	if s.Artifacts[0].ID != "figure7" {
		t.Errorf("Find(table5) returned the study of %q, want the fat-tree study", s.Artifacts[0].ID)
	}
	if _, err := Find("nosuch"); err == nil {
		t.Error("Find(nosuch) should fail")
	}
}

// TestFigure13BisectionClose validates §4.3.3's observation that DARD and
// TeXCP achieve comparable bisection bandwidth: their average core-link
// utilizations stay within 30% of each other.
func TestFigure13BisectionClose(t *testing.T) {
	tb := runStudy(t, "figure13")
	r := tb["figure13"]
	d, x := r.Values["DARD/coreUtil"], r.Values["TeXCP/coreUtil"]
	if d <= 0 || x <= 0 {
		t.Fatalf("missing utilization values: dard=%g texcp=%g", d, x)
	}
	ratio := d / x
	if ratio < 0.7 || ratio > 1.43 {
		t.Errorf("bisection utilization diverges: DARD %.3f vs TeXCP %.3f", d, x)
	}
	// Figures 5 and 13 read the same DARD run.
	if got, want := tb["figure5"].Values["DARD/mean"], r.Values["DARD/mean"]; got != want {
		t.Errorf("Figure 5 DARD mean %g != Figure 13 DARD mean %g", got, want)
	}
}

func TestFigure14TeXCPRetx(t *testing.T) {
	r := runStudy(t, "figure14")["figure14"]
	if r.Values["TeXCP/meanRetxRate"] <= r.Values["DARD/meanRetxRate"] {
		t.Errorf("TeXCP retx %.4f should exceed DARD %.4f",
			r.Values["TeXCP/meanRetxRate"], r.Values["DARD/meanRetxRate"])
	}
}
