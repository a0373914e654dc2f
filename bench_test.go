// Benchmarks regenerating every table and figure of the paper's
// evaluation at Quick scale, plus ablation benches for the design choices
// DESIGN.md calls out (δ threshold, randomized scheduling interval, query
// interval) and engine microbenchmarks. Custom metrics carry the paper's
// numbers: mean transfer seconds, improvement fractions, path-switch
// percentiles, and control MB/s.
//
// Run them all with:
//
//	go test -bench=. -benchmem
package dard_test

import (
	"fmt"
	"slices"
	"testing"

	"dard"
	"dard/internal/experiments"
	"dard/internal/trace"
)

// benchExperiment runs the study that renders one artifact per
// iteration and reports a selection of that artifact's key values as
// benchmark metrics.
func benchExperiment(b *testing.B, id string, metricKeys map[string]string) {
	b.Helper()
	study, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	at := slices.IndexFunc(study.Artifacts, func(a experiments.Artifact) bool { return a.ID == id })
	params := experiments.Quick()
	for i := 0; i < b.N; i++ {
		results, err := study.Run(params)
		if err != nil {
			b.Fatal(err)
		}
		for key, unit := range metricKeys {
			if v, ok := results[at].Values[key]; ok {
				b.ReportMetric(v, unit)
			}
		}
	}
}

func BenchmarkTable1Toy(b *testing.B) {
	benchExperiment(b, "table1", map[string]string{"moves": "moves"})
}

func BenchmarkTables2And3Addressing(b *testing.B) {
	benchExperiment(b, "tables2-3", map[string]string{"flatEntries": "entries"})
}

func BenchmarkFig4Improvement(b *testing.B) {
	benchExperiment(b, "figure4", map[string]string{
		"rate=0.80/stride/improvement": "improv@0.8",
	})
}

func BenchmarkFig5CDF(b *testing.B) {
	benchExperiment(b, "figure5", map[string]string{
		"DARD/mean": "dard-s",
		"ECMP/mean": "ecmp-s",
	})
}

func BenchmarkFig6PathSwitches(b *testing.B) {
	benchExperiment(b, "figure6", map[string]string{"stride/p90": "p90-switches"})
}

func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "figure7", map[string]string{
		"stride/DARD/mean": "dard-s",
		"stride/ECMP/mean": "ecmp-s",
	})
}

func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "figure8", map[string]string{"stride/p90": "p90-switches"})
}

func BenchmarkTable4(b *testing.B) {
	benchExperiment(b, "table4", map[string]string{
		"p=4/stride/DARD":               "dard-s",
		"p=4/stride/ECMP":               "ecmp-s",
		"p=4/stride/SimulatedAnnealing": "sa-s",
	})
}

func BenchmarkTable5(b *testing.B) {
	benchExperiment(b, "table5", map[string]string{"p=4/stride/max": "max-switches"})
}

func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "figure9", map[string]string{
		"stride/DARD/mean": "dard-s",
		"stride/ECMP/mean": "ecmp-s",
	})
}

func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "figure10", map[string]string{"stride/p90": "p90-switches"})
}

func BenchmarkTable6(b *testing.B) {
	benchExperiment(b, "table6", map[string]string{
		"D=4/stride/DARD": "dard-s",
		"D=4/stride/ECMP": "ecmp-s",
	})
}

func BenchmarkTable7(b *testing.B) {
	benchExperiment(b, "table7", map[string]string{"D=4/stride/max": "max-switches"})
}

func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "figure11", map[string]string{
		"staggered/DARD/mean":               "dard-s",
		"staggered/SimulatedAnnealing/mean": "sa-s",
	})
}

func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "figure12", map[string]string{"stride/p90": "p90-switches"})
}

func BenchmarkFig13TeXCP(b *testing.B) {
	benchExperiment(b, "figure13", map[string]string{
		"DARD/mean":  "dard-s",
		"TeXCP/mean": "texcp-s",
	})
}

func BenchmarkFig14Retx(b *testing.B) {
	benchExperiment(b, "figure14", map[string]string{
		"DARD/meanRetxRate":  "dard-retx",
		"TeXCP/meanRetxRate": "texcp-retx",
	})
}

func BenchmarkFig15Overhead(b *testing.B) {
	benchExperiment(b, "figure15", map[string]string{
		"rate=2.00/DARD_MBps":        "dard-MBps",
		"rate=2.00/Centralized_MBps": "central-MBps",
	})
}

func BenchmarkNashConvergence(b *testing.B) {
	benchExperiment(b, "theorem2", map[string]string{"meanMoves": "moves"})
}

// --- Ablations -----------------------------------------------------------

// ablationScenario is the shared stride workload for ablation benches.
func ablationScenario() dard.Scenario {
	return dard.Scenario{
		Topology:       dard.TopologySpec{Kind: dard.FatTree, P: 4},
		Scheduler:      dard.SchedulerDARD,
		Pattern:        dard.PatternStride,
		RatePerHost:    2,
		Duration:       12,
		FileSizeMB:     32,
		Seed:           3,
		ElephantAgeSec: 0.25,
	}
}

// BenchmarkAblationDelta sweeps Algorithm 1's δ threshold: δ=0 shifts on
// any improvement (more oscillation), large δ suppresses shifting (§2.5's
// performance/stability trade-off).
func BenchmarkAblationDelta(b *testing.B) {
	for _, tc := range []struct {
		name string
		bps  float64
	}{
		{"delta=0", -1}, // negative clamps to exactly 0
		{"delta=10M", 10e6},
		{"delta=100M", 100e6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1, DeltaBps: tc.bps}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
				b.ReportMetric(rep.PathSwitchQuantile(1), "max-switches")
				b.ReportMetric(float64(rep.DARDShifts), "shifts")
			}
		})
	}
}

// BenchmarkAblationJitter removes the randomized scheduling interval: the
// paper credits the jitter for preventing synchronized path switching.
func BenchmarkAblationJitter(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"jitter=on", false},
		{"jitter=off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1, DisableJitter: tc.disable}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
				b.ReportMetric(rep.PathSwitchQuantile(1), "max-switches")
			}
		})
	}
}

// BenchmarkAblationQueryInterval sweeps the monitor polling period:
// staleness versus control overhead.
func BenchmarkAblationQueryInterval(b *testing.B) {
	for _, q := range []float64{0.1, 0.25, 1.0} {
		b.Run(benchName("query", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.DARD = dard.Tuning{QueryInterval: q, ScheduleInterval: 1, ScheduleJitter: 1}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
				b.ReportMetric(rep.ControlMBps(), "ctl-MBps")
			}
		})
	}
}

// BenchmarkEngineAgreement runs the same scenario on both engines: the
// flow-level fluid model and the packet-level TCP model should agree on
// who wins (validation of the ns-2 substitution).
func BenchmarkEngineAgreement(b *testing.B) {
	for _, engine := range []dard.Engine{dard.EngineFlow, dard.EnginePacket} {
		b.Run(string(engine), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.Engine = engine
				s.Topology.LinkCapacity = 100e6
				s.FileSizeMB = 2
				s.RatePerHost = 0.3
				s.Duration = 5
				s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
			}
		})
	}
}

// --- Engine microbenchmarks ----------------------------------------------

// BenchmarkMaxMinScale exercises the flow-level engine's hot path at the
// paper's large fabric sizes (trimmed host edge, like cmd/dardsim and
// TestPaperScaleFabric): p=8/16/32/64 fat-trees under a stride workload.
// ECMP keeps control-plane work out of the measurement, so the numbers
// isolate the max-min recompute, the membership bookkeeping, and the
// event loop — the costs the incremental engine attacks. Run with
// -benchtime=1x for the wall-clock comparison recorded in BENCH_pr3.json
// (p=64 was added later, alongside BENCH_pr6.json).
func BenchmarkMaxMinScale(b *testing.B) {
	for _, p := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			topo, err := dard.TopologySpec{Kind: dard.FatTree, P: p, HostsPerToR: 1}.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := dard.Scenario{
					Topo:           topo,
					Scheduler:      dard.SchedulerECMP,
					Pattern:        dard.PatternStride,
					RatePerHost:    2,
					Duration:       10,
					FileSizeMB:     64,
					Seed:           7,
					ElephantAgeSec: 0.5,
				}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Unfinished != 0 {
					b.Fatalf("%d unfinished flows", rep.Unfinished)
				}
				b.ReportMetric(float64(rep.Flows), "flows")
			}
		})
	}
}

// BenchmarkFlowsimEvents measures the fluid engine's event throughput.
func BenchmarkFlowsimEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationScenario()
		s.Scheduler = dard.SchedulerECMP
		rep, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Flows), "flows")
	}
}

// BenchmarkPacketsimThroughput measures the packet engine's throughput.
func BenchmarkPacketsimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := ablationScenario()
		s.Engine = dard.EnginePacket
		s.Scheduler = dard.SchedulerECMP
		s.Topology.LinkCapacity = 100e6
		s.FileSizeMB = 2
		s.RatePerHost = 0.3
		s.Duration = 4
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v float64) string {
	return fmt.Sprintf("%s=%.2fs", prefix, v)
}

// BenchmarkAblationMonitorSharing compares shared per-ToR-pair monitors
// (the paper's On-demand Monitoring, §2.4.1) against naive per-flow
// monitors: same scheduling, multiplied control traffic.
func BenchmarkAblationMonitorSharing(b *testing.B) {
	for _, tc := range []struct {
		name    string
		perFlow bool
	}{
		{"shared", false},
		{"per-flow", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1, PerFlowMonitors: tc.perFlow}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.ControlMBps(), "ctl-MBps")
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
			}
		})
	}
}

// BenchmarkFailureRecovery measures the failure-injection extension: a
// core-facing link dies mid-run; DARD's monitors reroute the stranded
// elephants, static hashing strands them until MaxTime.
func BenchmarkFailureRecovery(b *testing.B) {
	for _, sch := range []dard.Scheduler{dard.SchedulerECMP, dard.SchedulerDARD} {
		b.Run(string(sch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := ablationScenario()
				s.Scheduler = sch
				s.MaxTimeSec = 60
				s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 0.5, ScheduleJitter: 0.5}
				s.LinkFailures = []dard.LinkFailure{{AtSec: 2, From: "aggr1_1", To: "core1"}}
				rep, err := s.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Unfinished), "stranded")
				b.ReportMetric(rep.MeanTransferTime(), "mean-s")
			}
		})
	}
}

// BenchmarkTracingOverhead measures the trace subsystem's cost on both
// engines: "off" runs with the default no-op tracer (the hot paths pay
// one Enabled() branch per potential event, nothing else), "recorder"
// runs with full event recording plus probes. The off/absent gap is the
// number the tentpole claims is zero; the recorder gap is the price of
// observability.
func BenchmarkTracingOverhead(b *testing.B) {
	scenarios := map[string]func() dard.Scenario{
		"flow": func() dard.Scenario {
			s := ablationScenario()
			return s
		},
		"packet": func() dard.Scenario {
			s := ablationScenario()
			s.Engine = dard.EnginePacket
			s.Topology.LinkCapacity = 100e6
			s.FileSizeMB = 2
			s.RatePerHost = 0.3
			s.Duration = 4
			s.DARD = dard.Tuning{QueryInterval: 0.25, ScheduleInterval: 1, ScheduleJitter: 1}
			return s
		},
	}
	for _, engine := range []string{"flow", "packet"} {
		for _, mode := range []string{"off", "recorder"} {
			b.Run(engine+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := scenarios[engine]()
					if mode == "recorder" {
						s.Tracer = trace.NewRecorder(trace.RecorderOptions{})
					}
					if _, err := s.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFlowletTeXCP compares per-packet TeXCP against the
// flowlet-switching extension the paper leaves as future work: flowlets
// should cut the retransmission rate.
func BenchmarkFlowletTeXCP(b *testing.B) {
	// Exercised through the texcp package tests; here we run the two
	// packet-engine policies back to back at quick scale via Figure 14's
	// DARD/TeXCP machinery plus the flowlet run.
	benchExperiment(b, "figure14", map[string]string{
		"TeXCP/meanRetxRate": "texcp-retx",
		"DARD/meanRetxRate":  "dard-retx",
	})
}
