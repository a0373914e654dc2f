// Command dardbench regenerates the paper's tables and figures. Each
// artifact prints a paper-style text block; -list enumerates them, -run
// selects a subset, and -scale picks the parameter set. Artifacts that
// are views of one set of runs (Figures 7-8 and Tables 4-5, say) come
// from one study, which runs once however many of them are selected.
//
// Usage:
//
//	dardbench -list
//	dardbench -run table4,figure15
//	dardbench -scale quick            # smallest, seconds
//	dardbench -scale default          # laptop scale (default)
//	dardbench -scale paper            # close to paper scale (very slow)
//	dardbench -parallel 1             # serial baseline (identical output)
//	dardbench -parallel 8             # 8 workers
//	dardbench -trace-dir traces       # one JSONL event trace per cell
//
// -parallel sizes the worker pool (0, the default, uses every CPU; 1 is
// serial): study cells fan out across it and whole studies overlap on
// it. Per-cell seeds are derived from the base seed and the
// cell identity, so the output is bit-identical for every -parallel
// value. Each simulation itself runs on one goroutine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"dard/internal/experiments"
	"dard/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dardbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dardbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	runIDs := fs.String("run", "", "comma-separated artifact IDs (default: all)")
	scale := fs.String("scale", "default", "parameter scale: quick, default, paper")
	seed := fs.Int64("seed", 0, "override the random seed")
	par := fs.Int("parallel", 0, "worker pool size: 0 = one per CPU, 1 = serial")
	traceDir := fs.String("trace-dir", "", "record a JSONL event trace per cell under this directory (see dardtrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, s := range experiments.Studies() {
			for _, a := range s.Artifacts {
				fmt.Fprintf(stdout, "%-12s %s\n", a.ID, a.Description)
			}
		}
		return nil
	}

	var params experiments.Params
	switch *scale {
	case "quick":
		params = experiments.Quick()
	case "default":
		params = experiments.Default()
	case "paper":
		params = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *seed != 0 {
		params.Seed = *seed
	}
	params.Workers = *par
	params.TraceDir = *traceDir

	// Each selected artifact names its study; a study runs once however
	// many of its artifacts are selected, and prints only those.
	studies := experiments.Studies()
	var want map[string]bool // nil selects every artifact
	if *runIDs != "" {
		studies, want = nil, make(map[string]bool)
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			s, err := experiments.Find(id)
			if err != nil {
				return err
			}
			if !slices.ContainsFunc(studies, func(t experiments.Study) bool { return t.Artifacts[0] == s.Artifacts[0] }) {
				studies = append(studies, s)
			}
			want[id] = true
		}
	}

	// Whole studies overlap on the same pool the cells use; results land
	// at their study's index and print in order, so the output is
	// identical to a serial run.
	start := time.Now()
	results := make([][]*experiments.Result, len(studies))
	took := make([]time.Duration, len(studies))
	err := parallel.ForEach(*par, len(studies), func(i int) error {
		t0 := time.Now()
		res, err := studies[i].Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", studies[i].Artifacts[0].ID, err)
		}
		results[i] = res
		took[i] = time.Since(t0)
		return nil
	})
	printed := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		var ids []string
		for j, a := range studies[i].Artifacts {
			if want == nil || want[a.ID] {
				fmt.Fprintln(stdout, res[j])
				ids = append(ids, a.ID)
			}
		}
		fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", strings.Join(ids, ","), took[i].Seconds())
		printed += len(ids)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "total: %d experiments from %d studies in %.1fs (workers=%d)\n",
		printed, len(studies), time.Since(start).Seconds(), parallel.Workers(*par))
	return nil
}
