// Command dardbench regenerates the paper's tables and figures. Each
// experiment prints a paper-style text block; -list enumerates them,
// -run selects a subset, and -scale picks the parameter set.
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
// serial): experiment cells fan out across it and whole experiments
// overlap on it. Per-cell seeds are derived from the base seed and the
// cell identity, so the output is bit-identical for every -parallel
// value. Each simulation itself runs on one goroutine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dard/internal/experiments"
	"dard/internal/parallel"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dardbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dardbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiments and exit")
	runIDs := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	scale := fs.String("scale", "default", "parameter scale: quick, default, paper")
	seed := fs.Int64("seed", 0, "override the random seed")
	par := fs.Int("parallel", 0, "worker pool size: 0 = one per CPU, 1 = serial")
	traceDir := fs.String("trace-dir", "", "record a JSONL event trace per cell under this directory (see dardtrace)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.ID, e.Description)
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

	var entries []experiments.Entry
	if *runIDs == "" {
		entries = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := experiments.Find(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			entries = append(entries, e)
		}
	}

	// Whole experiments overlap on the same pool the cells use; results
	// land at their entry index and print in registry order, so the
	// output is identical to a serial run.
	start := time.Now()
	results := make([]*experiments.Result, len(entries))
	took := make([]time.Duration, len(entries))
	err := parallel.ForEach(*par, len(entries), func(i int) error {
		t0 := time.Now()
		res, err := entries[i].Run(params)
		if err != nil {
			return fmt.Errorf("%s: %w", entries[i].ID, err)
		}
		results[i] = res
		took[i] = time.Since(t0)
		return nil
	})
	for i, res := range results {
		if res != nil {
			fmt.Printf("%s\n(%s in %.1fs)\n\n", res, entries[i].ID, took[i].Seconds())
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("total: %d experiments in %.1fs (workers=%d)\n",
		len(entries), time.Since(start).Seconds(), parallel.Workers(*par))
	return nil
}
