package dard_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dard"
)

func TestValidateAcceptsEquivalenceScenarios(t *testing.T) {
	for name, s := range equivalenceCases(false) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := (dard.Scenario{}).Validate(); err != nil {
		t.Errorf("zero scenario (all defaults): %v", err)
	}
	if err := (dard.Scenario{Scheduler: dard.SchedulerTeXCP, Engine: dard.EnginePacket}).Validate(); err != nil {
		t.Errorf("TeXCP on the packet engine: %v", err)
	}
	steady := dard.Scenario{Steady: true, Duration: -1, MaxTimeSec: 30}
	if err := steady.Validate(); err != nil {
		t.Errorf("unbounded steady run with MaxTimeSec: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name     string
		scenario dard.Scenario
		field    string
		message  string
	}{
		{"unknown engine", dard.Scenario{Engine: "quantum"}, "Engine", "unknown engine"},
		{"unknown scheduler", dard.Scenario{Scheduler: "LRU"}, "Scheduler", "unknown scheduler"},
		{"TeXCP on flow engine", dard.Scenario{Scheduler: dard.SchedulerTeXCP}, "Scheduler", "TeXCP requires Engine: EnginePacket"},
		{"annealing on packet engine", dard.Scenario{Scheduler: dard.SchedulerAnnealing, Engine: dard.EnginePacket}, "Scheduler", "centralized scheduler runs on Engine: EngineFlow"},
		{"unknown pattern", dard.Scenario{Pattern: "all-to-all"}, "Pattern", "unknown pattern"},
		{"unknown topology kind", dard.Scenario{Topology: dard.TopologySpec{Kind: "torus"}}, "Topology", "unknown topology kind"},
		{"negative rate", dard.Scenario{RatePerHost: -1}, "RatePerHost", "must be positive"},
		{"NaN duration", dard.Scenario{Duration: math.NaN()}, "Duration", "must be finite"},
		{"negative batch duration", dard.Scenario{Duration: -3}, "Duration", "must be positive"},
		{"negative file size", dard.Scenario{FileSizeMB: -8}, "FileSizeMB", "must be positive"},
		{"infinite max time", dard.Scenario{MaxTimeSec: math.Inf(1)}, "MaxTimeSec", "non-negative finite"},
		{"NaN window", dard.Scenario{WindowSec: math.NaN()}, "WindowSec", "must be finite"},
		{"steady on packet engine", dard.Scenario{Steady: true, Engine: dard.EnginePacket}, "Steady", "requires Engine: EngineFlow"},
		{"unbounded steady without max time", dard.Scenario{Steady: true, Duration: -1}, "MaxTimeSec", "needs MaxTimeSec"},
		{"fault probability out of range", dard.Scenario{DARD: dard.Tuning{CtlLossProb: 1.5}}, "DARD", ""},
		{"link failure at negative time", dard.Scenario{LinkFailures: []dard.LinkFailure{{AtSec: -1, From: "a", To: "b"}}}, "LinkFailures", "invalid time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.scenario.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			var ve *dard.ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error %v is not a *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Errorf("field %q, want %q", ve.Field, tc.field)
			}
			if !strings.Contains(err.Error(), tc.message) {
				t.Errorf("message %q does not mention %q", err, tc.message)
			}
			if ve.Unwrap() == nil {
				t.Error("ValidationError does not unwrap")
			}
		})
	}
}

// TestValidateMatchesRun pins that for mistakes both paths can see, the
// scenario fails Run with the same message Validate reports — so a
// submission rejected with HTTP 400 cites exactly what Run would have
// said.
func TestValidateMatchesRun(t *testing.T) {
	for _, s := range []dard.Scenario{
		{Scheduler: "LRU"},
		{Pattern: "all-to-all"},
		{Engine: "quantum"},
		{Scheduler: dard.SchedulerTeXCP},
		{Scheduler: dard.SchedulerAnnealing, Engine: dard.EnginePacket},
		{Topology: dard.TopologySpec{Kind: "torus"}},
		{Duration: -3},
		{RatePerHost: math.NaN()},
		{RatePerHost: math.Inf(1)},
		{Duration: math.Inf(1)},
	} {
		verr := s.Validate()
		if verr == nil {
			t.Fatalf("%+v: Validate accepted", s)
		}
		_, rerr := s.Run()
		if rerr == nil {
			t.Fatalf("%+v: Run accepted", s)
		}
		if verr.Error() != rerr.Error() {
			t.Errorf("messages diverge:\n  Validate: %s\n  Run:      %s", verr, rerr)
		}
	}
}
