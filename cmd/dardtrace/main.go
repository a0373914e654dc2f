// Command dardtrace records a structured event trace for one scheduling
// scenario and renders human-readable summaries from it: event counts,
// the most congested links, the path-switch convergence timeline, the
// reconstructed bisection-throughput curve, and per-flow timelines. It
// can also summarize a trace recorded earlier (by dardtrace itself or by
// dardbench -trace-dir).
//
// Usage:
//
//	dardtrace -scheduler DARD -pattern stride -p 4          # record + summarize
//	dardtrace -engine packet -p 4 -capacity 100e6 -out t.jsonl
//	dardtrace -in t.jsonl -top 5 -flows 3                   # summarize a file
//	dardtrace -selfcheck                                    # verify the trace
//	dardtrace -csv t                                        # t_events.csv, t_series.csv
//
// -selfcheck proves the trace is faithful: the JSONL round-trips
// losslessly (parse -> re-encode -> byte-identical) and, when recording,
// the transfer times reconstructed from the trace equal the report's
// bit for bit.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"

	"dard"
	"dard/internal/fpcmp"
	"dard/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dardtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dardtrace", flag.ContinueOnError)
	in := fs.String("in", "", "summarize this trace file instead of recording")
	outFile := fs.String("out", "", "write the recorded trace here (default: summarize only)")
	selfcheck := fs.Bool("selfcheck", false, "verify round-trip and report fidelity")
	top := fs.Int("top", 8, "number of congested links to list")
	bucket := fs.Float64("bucket", 1, "timeline bucket width in seconds")
	flows := fs.Int("flows", 0, "number of per-flow timelines to print")
	flowID := fs.Int("flow", -1, "print one flow's timeline by ID")

	kind := fs.String("topo", "fattree", "topology kind: fattree, clos, threetier, dragonfly (a=3, routers per group -d) or dcell (n=3, level 1)")
	p := fs.Int("p", 4, "fat-tree port count")
	d := fs.Int("d", 4, "Clos D_I = D_A; dragonfly routers per group")
	hostsPerToR := fs.Int("hosts-per-tor", 0, "override hosts per ToR")
	capacity := fs.Float64("capacity", 0, "link capacity in bits/s (0 = 1 Gbps)")
	scheduler := fs.String("scheduler", "DARD", "ECMP, pVLB, DARD, SimulatedAnnealing, TeXCP")
	pattern := fs.String("pattern", "stride", "random, staggered, stride")
	engine := fs.String("engine", "flow", "flow or packet")
	rate := fs.Float64("rate", 1, "flow arrivals per second per host")
	duration := fs.Float64("duration", 10, "arrival window in seconds")
	fileMB := fs.Float64("file-mb", 16, "transfer size in MB")
	seed := fs.Int64("seed", 1, "random seed")
	elephantAge := fs.Float64("elephant-age", 0.5, "elephant detection threshold in seconds")
	probe := fs.Float64("probe-interval", 0, "probe period in seconds (0 = default, <0 = off)")
	csv := fs.String("csv", "", "also write <prefix>_events.csv and <prefix>_series.csv")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	var rep *dard.Report
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		tr, err = trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		rec := trace.NewRecorder(trace.RecorderOptions{})
		var err error
		rep, err = dard.Scenario{
			Topology: dard.TopologySpec{
				Kind:         dard.TopologyKind(*kind),
				P:            *p,
				D:            *d,
				HostsPerToR:  *hostsPerToR,
				LinkCapacity: *capacity,
			},
			Scheduler:          dard.Scheduler(*scheduler),
			Pattern:            dard.Pattern(*pattern),
			Engine:             dard.Engine(*engine),
			RatePerHost:        *rate,
			Duration:           *duration,
			FileSizeMB:         *fileMB,
			Seed:               *seed,
			ElephantAgeSec:     *elephantAge,
			Tracer:             rec,
			TraceProbeInterval: *probe,
		}.Run()
		if err != nil {
			return err
		}
		tr = rec.Take()
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				return err
			}
			if err := trace.WriteJSONL(f, tr); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *outFile)
		}
	}

	if *selfcheck {
		if err := check(tr, rep); err != nil {
			return err
		}
		fmt.Fprintln(out, "selfcheck: ok")
	}
	if *csv != "" {
		if err := writeCSVs(*csv, tr, out); err != nil {
			return err
		}
	}
	summarize(out, tr, rep, *top, *bucket, *flows, *flowID)
	return nil
}

// check verifies the trace round-trips losslessly through JSONL and, when
// a report is available, that the aggregator reconstructs its transfer
// times exactly.
func check(tr *trace.Trace, rep *dard.Report) error {
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr); err != nil {
		return fmt.Errorf("selfcheck: encode: %w", err)
	}
	first := buf.Bytes()
	back, err := trace.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		return fmt.Errorf("selfcheck: decode: %w", err)
	}
	if !reflect.DeepEqual(tr, back) {
		return fmt.Errorf("selfcheck: trace changed across a JSONL round trip")
	}
	var again bytes.Buffer
	if err := trace.WriteJSONL(&again, back); err != nil {
		return fmt.Errorf("selfcheck: re-encode: %w", err)
	}
	if !bytes.Equal(first, again.Bytes()) {
		return fmt.Errorf("selfcheck: JSONL encoding is not canonical")
	}
	if rep == nil {
		return nil
	}
	got := trace.NewAggregator(tr).TransferTimes()
	want := rep.TransferTimes
	if len(got) != len(want) {
		return fmt.Errorf("selfcheck: trace has %d completions, report has %d", len(got), len(want))
	}
	for i := range got {
		if !fpcmp.SameBits(got[i], want[i]) {
			return fmt.Errorf("selfcheck: transfer time %d: trace %v != report %v", i, got[i], want[i])
		}
	}
	return nil
}

func writeCSVs(prefix string, tr *trace.Trace, out io.Writer) error {
	for _, w := range []struct {
		path  string
		write func(io.Writer, *trace.Trace) error
	}{
		{prefix + "_events.csv", trace.WriteEventsCSV},
		{prefix + "_series.csv", trace.WriteSeriesCSV},
	} {
		f, err := os.Create(w.path)
		if err != nil {
			return err
		}
		if err := w.write(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", w.path)
	}
	return nil
}

func summarize(out io.Writer, tr *trace.Trace, rep *dard.Report, top int, bucket float64, flows, flowID int) {
	a := trace.NewAggregator(tr)
	m := tr.Meta
	fmt.Fprintf(out, "trace: %s  %s/%s  engine=%s  seed=%d  probe=%gs  links=%d\n",
		m.Topology, m.Pattern, m.Scheduler, m.Engine, m.Seed, m.ProbeInterval, len(m.Links))

	counts := a.EventCounts()
	total := 0
	var parts []string
	for _, k := range trace.Kinds() {
		if n := counts[k]; n > 0 {
			total += n
			parts = append(parts, fmt.Sprintf("%s %d", k, n))
		}
	}
	fmt.Fprintf(out, "duration: %.3fs  events: %d (%s)\n", a.Duration(), total, strings.Join(parts, ", "))

	comps := a.Completions()
	if n := len(comps); n > 0 {
		tt := a.TransferTimes()
		sum := 0.0
		for _, t := range tt {
			sum += t
		}
		fmt.Fprintf(out, "flows: %d started, %d completed, mean transfer %.3fs (median %.3fs)\n",
			counts[trace.KindFlowStart], n, sum/float64(n), tt[n/2])
	}
	if cb := a.ControlBytes(); cb > 0 {
		fmt.Fprintf(out, "control: %.3f MB over %d exchanges\n", cb/1e6, counts[trace.KindControlMsg])
	}
	if rep != nil {
		fmt.Fprintf(out, "report: %d flows, %d unfinished, mean transfer %.3fs\n",
			rep.Flows, rep.Unfinished, rep.MeanTransferTime())
	}

	if links := a.TopLinks(top); len(links) > 0 {
		fmt.Fprintf(out, "\ntop congested links (mean probed utilization):\n")
		for i, l := range links {
			fmt.Fprintf(out, "  %2d. %-24s mean %5.1f%%  max %5.1f%%  samples %d  drops %d\n",
				i+1, l.Name, 100*l.MeanUtil, 100*l.MaxUtil, l.Samples, l.Drops)
		}
	}

	if tl := a.SwitchTimeline(bucket); len(tl) > 0 {
		fmt.Fprintf(out, "\npath switches per %gs bucket (convergence):\n", bucket)
		printTimeline(out, tl)
	}
	if tl := a.RetxTimeline(bucket); len(tl) > 0 {
		fmt.Fprintf(out, "\nretransmissions per %gs bucket:\n", bucket)
		printTimeline(out, tl)
	}

	if bis := a.BisectionSeries(); len(bis) > 0 {
		peak, peakT, sum := 0.0, 0.0, 0.0
		for _, p := range bis {
			sum += p.V
			if p.V > peak {
				peak, peakT = p.V, p.T
			}
		}
		fmt.Fprintf(out, "\nbisection throughput: peak %.3f Gbps at t=%.2fs, mean %.3f Gbps over %d probes\n",
			peak/1e9, peakT, sum/float64(len(bis))/1e9, len(bis))
	}

	if flows > 0 || flowID >= 0 {
		fmt.Fprintf(out, "\nflow timelines:\n")
		printed := 0
		for _, ft := range a.FlowTimelines() {
			if flowID >= 0 && int(ft.Flow) != flowID {
				continue
			}
			if flowID < 0 && printed >= flows {
				break
			}
			printFlow(out, ft)
			printed++
		}
		if printed == 0 {
			fmt.Fprintf(out, "  (no matching flows)\n")
		}
	}
}

func printTimeline(out io.Writer, tl []trace.TimeBucket) {
	max := 0
	for _, b := range tl {
		if b.Count > max {
			max = b.Count
		}
	}
	for _, b := range tl {
		bar := ""
		if max > 0 {
			bar = strings.Repeat("#", b.Count*40/max)
		}
		fmt.Fprintf(out, "  [%6.1fs] %5d %s\n", b.Start, b.Count, bar)
	}
}

func printFlow(out io.Writer, ft *trace.FlowTimeline) {
	end := "unfinished"
	if !math.IsNaN(ft.End) {
		end = fmt.Sprintf("%.3fs (%.3fs)", ft.End, ft.End-ft.Start)
	}
	fmt.Fprintf(out, "  flow %d: %.1f MB, start %.3fs, end %s, %d switches, %d retx, %d drops\n",
		ft.Flow, ft.SizeBits/8e6, ft.Start, end, len(ft.Switches), ft.Retx, ft.Drops)
	for _, sw := range ft.Switches {
		fmt.Fprintf(out, "    t=%.3fs path %d -> %d\n", sw.T, sw.A, sw.B)
	}
	if len(ft.Rate) > 0 {
		fmt.Fprintf(out, "    rate: %s\n", sparkline(ft.Rate))
	}
	if len(ft.Cwnd) > 0 {
		fmt.Fprintf(out, "    cwnd: %s\n", sparkline(ft.Cwnd))
	}
}

// sparkline renders a probed series as min/max plus a coarse trend of up
// to eight evenly spaced samples.
func sparkline(pts []trace.Point) string {
	vals := make([]float64, len(pts))
	for i, p := range pts {
		vals[i] = p.V
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	n := 8
	if len(vals) < n {
		n = len(vals)
	}
	picks := make([]string, n)
	for i := 0; i < n; i++ {
		picks[i] = fmt.Sprintf("%.3g", vals[i*len(vals)/n])
	}
	return fmt.Sprintf("min %.3g max %.3g [%s]", min, max, strings.Join(picks, " "))
}
