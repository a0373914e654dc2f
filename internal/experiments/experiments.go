// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each study builds its workload, runs the relevant
// schedulers on the right engine once, and renders every artifact drawn
// from those runs as a paper-style text block plus a map of key
// metrics. Parameters default to laptop-scale versions of the paper's
// settings (documented per experiment and in DESIGN.md); cmd/dardbench
// can run them closer to paper scale.
package experiments

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"dard"
	"dard/internal/fpcmp"
	"dard/internal/metrics"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID names the artifact, e.g. "Table 4".
	ID string
	// Title describes it.
	Title string
	// Text is the rendered paper-style block.
	Text string
	// Values holds key metrics for tests and EXPERIMENTS.md, keyed by a
	// stable "dimension/dimension" path.
	Values map[string]float64
}

// String renders the result.
func (r *Result) String() string {
	return fmt.Sprintf("=== %s: %s ===\n%s", r.ID, r.Title, r.Text)
}

// Params scales the experiment suite. The zero value is laptop scale;
// Paper() approaches the paper's settings (slow).
type Params struct {
	// FileSizeMB is the elephant transfer size for flow-engine
	// experiments (paper: 128).
	FileSizeMB float64
	// RatePerHost is the Poisson arrival rate in flows/s/host (paper:
	// 5, i.e. 0.2 s expected inter-arrival).
	RatePerHost float64
	// Duration is the arrival window in seconds (paper: 120).
	Duration float64
	// FatTreeP lists the fat-tree sizes for Tables 4-5 (paper: 8,16,32).
	FatTreeP []int
	// ClosD lists the Clos sizes for Tables 6-7 (paper: 4,8,16).
	ClosD []int
	// HostsPerToR scales the edge population down (0 = family default).
	HostsPerToR int
	// BigP is the fat-tree used for the Figure 7/8 CDFs (paper: 32); the
	// fat-tree study runs it with the FatTreeP sizes in one grid.
	BigP int
	// BigD is the Clos used for the Figure 9/10 CDFs (paper: 16).
	BigD int
	// PacketFileMB is the transfer size for packet-engine experiments.
	PacketFileMB float64
	// PacketDuration is the packet-engine arrival window in seconds.
	PacketDuration float64
	// PacketRate is the packet-engine arrival rate in flows/s/host.
	PacketRate float64
	// Seed drives everything.
	Seed int64
	// Workers sizes the worker pool that fans the (pattern, scheduler,
	// size, trial) cells of each experiment across goroutines: <= 0 uses
	// one worker per CPU, 1 reproduces a serial run. Per-cell seeds are
	// derived from Seed and the cell identity (dard.CellSeed), so results
	// are bit-identical for every worker count.
	Workers int
	// TraceDir, when non-empty, makes every simulation cell record a
	// JSONL event trace under TraceDir/<study>/ (see internal/trace),
	// where <study> is one directory per study: table4 for the fat-tree
	// study (Figures 7-8, Tables 4-5), table6 for the Clos study,
	// figure11 for the three-tier study, figure5 for the packet testbed
	// study (Figures 5, 13, 14), and the artifact's own ID otherwise.
	// Each cell runs once, so it writes one file; file names are derived
	// from the cell identity, so serial and parallel sweeps write
	// identical trees.
	TraceDir string
}

// Default returns laptop-scale parameters: every experiment finishes in
// seconds while preserving the paper's qualitative shapes.
func Default() Params {
	return Params{
		FileSizeMB:     64,
		RatePerHost:    1.2,
		Duration:       25,
		FatTreeP:       []int{4, 8},
		ClosD:          []int{4, 8},
		BigP:           8,
		BigD:           8,
		PacketFileMB:   8,
		PacketDuration: 8,
		PacketRate:     0.6,
		Seed:           1,
	}
}

// Quick returns the smallest sensible parameters, used by the benchmark
// harness.
func Quick() Params {
	p := Default()
	p.FileSizeMB = 32
	p.RatePerHost = 2
	p.Duration = 12
	p.FatTreeP = []int{4}
	p.ClosD = []int{4}
	p.BigP = 4
	p.BigD = 4
	p.PacketFileMB = 4
	p.PacketDuration = 5
	p.PacketRate = 0.5
	return p
}

// Paper returns parameters close to the paper's (hours of CPU at p=32;
// use from cmd/dardbench only).
func Paper() Params {
	return Params{
		FileSizeMB:     128,
		RatePerHost:    5,
		Duration:       120,
		FatTreeP:       []int{8, 16, 32},
		ClosD:          []int{4, 8, 16},
		HostsPerToR:    1, // even at paper scale the host edge is trimmed
		BigP:           32,
		BigD:           16,
		PacketFileMB:   128,
		PacketDuration: 300,
		PacketRate:     1,
		Seed:           1,
	}
}

func (p Params) withDefaults() Params {
	d := Default()
	if fpcmp.IsZero(p.FileSizeMB) {
		p.FileSizeMB = d.FileSizeMB
	}
	if fpcmp.IsZero(p.RatePerHost) {
		p.RatePerHost = d.RatePerHost
	}
	if fpcmp.IsZero(p.Duration) {
		p.Duration = d.Duration
	}
	if len(p.FatTreeP) == 0 {
		p.FatTreeP = d.FatTreeP
	}
	if len(p.ClosD) == 0 {
		p.ClosD = d.ClosD
	}
	if p.BigP == 0 {
		p.BigP = d.BigP
	}
	if p.BigD == 0 {
		p.BigD = d.BigD
	}
	if fpcmp.IsZero(p.PacketFileMB) {
		p.PacketFileMB = d.PacketFileMB
	}
	if fpcmp.IsZero(p.PacketDuration) {
		p.PacketDuration = d.PacketDuration
	}
	if fpcmp.IsZero(p.PacketRate) {
		p.PacketRate = d.PacketRate
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// traceDir joins the suite's trace root with an experiment's path parts,
// or returns "" when tracing is off.
func (p Params) traceDir(parts ...string) string {
	if p.TraceDir == "" {
		return ""
	}
	return filepath.Join(append([]string{p.TraceDir}, parts...)...)
}

// patterns lists the paper's three traffic patterns in presentation
// order.
var patterns = []dard.Pattern{dard.PatternRandom, dard.PatternStaggered, dard.PatternStride}

// flowSchedulers lists the four approaches compared on the flow engine
// (§4.3.1).
var flowSchedulers = []dard.Scheduler{
	dard.SchedulerECMP, dard.SchedulerPVLB, dard.SchedulerDARD, dard.SchedulerAnnealing,
}

// grid lays base out over topologies x patterns x schedulers, in that
// order, for dard.RunAll. Each cell's seed is CellSeed(base.Seed, topo,
// pattern): stable per cell, so parallel and serial runs agree cell by
// cell, and shared across the schedulers of one pattern, so scheduler
// comparisons stay paired on the same workload.
func grid(base dard.Scenario, topos []*dard.Topology, pats []dard.Pattern, scheds []dard.Scheduler) []dard.Scenario {
	cells := make([]dard.Scenario, 0, len(topos)*len(pats)*len(scheds))
	for _, topo := range topos {
		for _, pat := range pats {
			for _, sch := range scheds {
				s := base
				s.Topo, s.Pattern, s.Scheduler = topo, pat, sch
				s.Seed = dard.CellSeed(base.Seed, topo, pat)
				cells = append(cells, s)
			}
		}
	}
	return cells
}

// topoRuns is one topology's share of a study grid: each scheduler's
// reports, one per pattern in patterns order.
type topoRuns struct {
	topo    *dard.Topology
	reports map[dard.Scheduler][]*dard.Report
}

// runGrid runs base once over topos x patterns x scheds (see grid) and
// splits the reports by topology.
func runGrid(p Params, base dard.Scenario, topos []*dard.Topology, scheds []dard.Scheduler) ([]topoRuns, error) {
	cells := grid(base, topos, patterns, scheds)
	reports, err := dard.RunAll(cells, p.Workers)
	if err != nil {
		return nil, err
	}
	runs := make([]topoRuns, len(topos))
	for i, c := range cells {
		r := &runs[i/(len(patterns)*len(scheds))]
		if r.reports == nil {
			*r = topoRuns{topo: c.Topo, reports: make(map[dard.Scheduler][]*dard.Report)}
		}
		r.reports[c.Scheduler] = append(r.reports[c.Scheduler], reports[i])
	}
	return runs, nil
}

// transferCDFs renders Figures 7, 9 and 11: per traffic pattern, the
// transfer-time CDFs of every scheduler run on one topology. "{topo}"
// in title becomes the topology's name.
func transferCDFs(id, title string, r topoRuns) *Result {
	var text string
	values := make(map[string]float64)
	for i, pat := range patterns {
		series := make(map[string][]float64)
		for sch, reps := range r.reports {
			rep := reps[i]
			series[string(sch)] = rep.TransferTimes
			values[fmt.Sprintf("%s/%s/mean", pat, sch)] = rep.MeanTransferTime()
		}
		text += cdfBlock(fmt.Sprintf("(%s) transfer time (s), %s", pat, r.topo.Name()), series) + "\n"
	}
	return &Result{ID: id, Title: strings.ReplaceAll(title, "{topo}", r.topo.Name()), Text: text, Values: values}
}

// switchCDF renders Figures 6, 8, 10 and 12: DARD's path-switch CDF per
// traffic pattern on one topology. "{topo}" in title becomes the
// topology's name.
func switchCDF(id, title string, r topoRuns) *Result {
	series := make(map[string][]float64)
	values := make(map[string]float64)
	for i, pat := range patterns {
		rep := r.reports[dard.SchedulerDARD][i]
		series[string(pat)] = rep.PathSwitches
		values[string(pat)+"/p90"] = rep.PathSwitchQuantile(0.9)
		values[string(pat)+"/max"] = rep.PathSwitchQuantile(1)
	}
	return &Result{
		ID:     id,
		Title:  strings.ReplaceAll(title, "{topo}", r.topo.Name()),
		Text:   cdfBlock("path switches", series),
		Values: values,
	}
}

// cdfBlock renders labeled samples as a quantile table.
func cdfBlock(title string, series map[string][]float64) string {
	samples := make(map[string]*metrics.Sample, len(series))
	for k, v := range series {
		var s metrics.Sample
		s.AddAll(v)
		samples[k] = &s
	}
	return metrics.FormatCDFSeries(title, samples, 11)
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// renderValues renders a Values map as "key = value" lines.
func renderValues(values map[string]float64) string {
	var b strings.Builder
	for _, k := range sortedKeys(values) {
		fmt.Fprintf(&b, "%-40s %8.3f\n", k, values[k])
	}
	return b.String()
}
