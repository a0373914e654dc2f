// Command dardsim runs one scheduling scenario — a topology, a scheduler,
// and a traffic pattern — and prints the paper's metrics for it.
//
// Usage:
//
//	dardsim -topo fattree -p 8 -scheduler DARD -pattern stride
//	dardsim -topo clos -d 8 -scheduler SimulatedAnnealing -pattern staggered
//	dardsim -engine packet -p 4 -capacity 100e6 -scheduler TeXCP -file-mb 4
package main

import (
	"flag"
	"fmt"
	"os"

	"dard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dardsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dardsim", flag.ContinueOnError)
	kind := fs.String("topo", "fattree", "topology kind: fattree, clos, threetier, dragonfly (a=3, routers per group -d) or dcell (n=3, level 1)")
	p := fs.Int("p", 4, "fat-tree port count")
	d := fs.Int("d", 4, "Clos D_I = D_A; dragonfly routers per group")
	hostsPerToR := fs.Int("hosts-per-tor", 0, "override hosts per ToR")
	capacity := fs.Float64("capacity", 0, "link capacity in bits/s (0 = 1 Gbps)")
	scheduler := fs.String("scheduler", "DARD", "ECMP, pVLB, DARD, SimulatedAnnealing, TeXCP")
	pattern := fs.String("pattern", "stride", "random, staggered, stride")
	engine := fs.String("engine", "flow", "flow or packet")
	rate := fs.Float64("rate", 1, "flow arrivals per second per host")
	duration := fs.Float64("duration", 20, "arrival window in seconds")
	fileMB := fs.Float64("file-mb", 64, "transfer size in MB (paper: 128)")
	seed := fs.Int64("seed", 1, "random seed")
	elephantAge := fs.Float64("elephant-age", 1, "elephant detection threshold in seconds")
	delta := fs.Float64("delta", 0, "DARD delta threshold in bits/s (0 = 10 Mbps)")
	cdf := fs.Bool("cdf", false, "also print the transfer-time CDF")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := dard.Scenario{
		Topology: dard.TopologySpec{
			Kind:         dard.TopologyKind(*kind),
			P:            *p,
			D:            *d,
			HostsPerToR:  *hostsPerToR,
			LinkCapacity: *capacity,
		},
		Scheduler:      dard.Scheduler(*scheduler),
		Pattern:        dard.Pattern(*pattern),
		Engine:         dard.Engine(*engine),
		RatePerHost:    *rate,
		Duration:       *duration,
		FileSizeMB:     *fileMB,
		Seed:           *seed,
		ElephantAgeSec: *elephantAge,
		DARD:           dard.Tuning{DeltaBps: *delta},
	}.Run()
	if err != nil {
		return err
	}
	fmt.Print(rep)
	if *cdf {
		fmt.Println("\ntransfer time CDF:")
		n := len(rep.TransferTimes)
		for i := 0; i <= 10; i++ {
			q := float64(i) / 10
			fmt.Printf("  %3.0f%%  %.3fs\n", q*100, rep.TransferTimeQuantile(q))
		}
		fmt.Printf("  (%d completed flows)\n", n)
	}
	return nil
}
