package dard

import (
	"context"

	"dard/internal/flowsim"
	"dard/internal/workload"
)

// WithReferenceEngine returns a copy of the scenario that runs on
// flowsim's retained reference scheduler instead of the incremental
// engine. Test-only: equivalence tests run every scenario both ways and
// require byte-identical reports.
func (s Scenario) WithReferenceEngine() Scenario {
	s.flowsimReference = true
	return s
}

// RunOnList runs the scenario on the flow engine with its workload
// stream drained up front into a workload.List, the flow list every run
// took before runs pulled from the stream: the oracle
// TestBoundedSteadyMatchesBatch holds streamed runs to.
func (s Scenario) RunOnList() (*Report, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	topo, op, err := s.prepare()
	if err != nil {
		return nil, err
	}
	src := workload.List(workload.Drain(op))
	cfg, ctl, err := s.flowConfig(topo, src)
	if err != nil {
		return nil, err
	}
	sim, err := flowsim.New(cfg)
	if err != nil {
		return nil, err
	}
	sess := &Session{scenario: s, topo: topo, sim: sim, ctl: ctl, src: src}
	return sess.Run(context.Background())
}
