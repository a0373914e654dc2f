// Command perfbench is the repository benchmark. It runs one named
// workload through the public facade (dard.Scenario, dard.Session) or
// the dardserve HTTP API (internal/serve over loopback), checks the
// outputs, and prints every metric by name and unit, ending with one
// JSON line:
//
//	bash perfbench/run.sh --workload flow-dard --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with nothing observing the
// program. --trace 1 is the separate traced run: the benchmark records
// spans around its own calls into each layer, attaches a trace recorder
// to the simulations, takes CPU and allocation profiles around the same
// calls and folds them per package, and prints the per-layer metrics.
// Spans are written as JSON lines when the traced run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one reported metric. The lists below are the
// benchmark's schema; BENCHMARK.json at the repository root mirrors
// them (TestBenchmarkJSONMatchesSchema).
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user sees, measured untraced. Each
// workload defines all of them; a "job" is one unit of service — a
// simulation from set-up to report on the simulation workloads, a
// daemon job from submit to report on serve-jobs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"mean_transfer_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
}

// layers are the program's modules a profile sample can be charged to:
// internal packages by name, and "facade" for the root package dard.
var layers = []string{
	"topology", "workload", "flowsim", "dard", "ctlmsg", "psim",
	"simnet", "tcp", "trace", "snap", "serve", "facade",
}

// perLayer are the traced run's metrics. A metric that does not apply
// to a workload (TCP counts on the flow engine, daemon spans on the
// simulations) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"topology.build_s", "s"},
		{"session.new_s", "s"},
		{"flowsim.run_s", "s"},
		{"psim.run_s", "s"},
		{"snap.snapshot_s", "s"},
		{"snap.bytes", "bytes"},
		{"snap.resume_s", "s"},
		{"serve.submit_s", "s"},
		{"serve.stream_s", "s"},
		{"serve.status_s", "s"},
		{"serve.checkpoint_s", "s"},
		{"serve.restore_s", "s"},
		{"serve.stream_mb", "MB"},
		{"serve.job_p90_s", "s"},
		{"trace.write_s", "s"},
		{"trace.jsonl_mb", "MB"},
		{"trace.overhead", "ratio"},
		{"flowsim.events", "count"},
		{"flowsim.us_per_event", "us"},
		{"dard.rounds", "count"},
		{"dard.shifts", "count"},
		{"dard.shift_ratio", "ratio"},
		{"ctlmsg.control_mb", "MB"},
		{"trace.control_msgs", "count"},
		{"tcp.retransmits", "count"},
		{"tcp.retx_rate_mean", "ratio"},
		{"simnet.drops", "count"},
		{"psim.core_util", "ratio"},
	}
	for _, l := range append(append([]string(nil), layers...), "gc", "other") {
		defs = append(defs, metricDef{"cpu." + l, "share"})
	}
	for _, l := range append(append([]string(nil), layers...), "other") {
		defs = append(defs, metricDef{"alloc." + l + "_mb", "MB"})
	}
	return defs
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
}

// result is what a workload run hands back for printing.
type result struct {
	ops     ledger
	e2e     map[string]float64
	layer   map[string]float64
	digest  string   // SHA-256 of the run's reference reports
	notes   []string // context lines: sample counts, ratio bases, sizes
	spanLog *spanLog
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"flow-dard":   flowDard.run,
	"packet-dard": packetDard.run,
	"serve-jobs":  runServeJobs,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flow-dard, packet-dard or serve-jobs")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long the measured loop runs")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (flow-dard, packet-dard, serve-jobs), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", *name, cfg.seed, cfg.seconds, *traceFlag)
	fmt.Fprintf(stdout, "host: host_cpus=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if res.spanLog != nil {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, cfg.seed))
		if err := writeSpans(path, res.spanLog); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
	}
	defs, values := endToEnd, res.e2e
	if cfg.traced {
		defs, values = perLayer, res.layer
	}
	line, err := summary(res, defs, values, !cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		for _, f := range res.ops.failures() {
			fmt.Fprintf(stderr, "FAILED: %s\n", f)
		}
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "report_digest: %s\n", res.digest)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%s: %.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
	attempted, failed := res.ops.counts()
	fmt.Fprintf(stdout, "failed_frac: %.6g (%d of %d operations)\n", float64(failed)/float64(attempted), failed, attempted)
	for _, f := range res.ops.failures() {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	fmt.Fprintln(stdout, line)
	if failed > 0 {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final JSON line. With required set every metric
// must have been measured (the end-to-end set); otherwise a metric the
// workload does not exercise reads 0 (the per-layer set).
func summary(res *result, defs []metricDef, values map[string]float64, required bool) (string, error) {
	attempted, failed := res.ops.counts()
	if attempted == 0 {
		return "", fmt.Errorf("no operations attempted")
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{failed == 0, attempted, failed, map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if (!ok && required) || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
		}
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}

func writeSpans(path string, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := l.write(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
