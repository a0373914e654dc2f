package dard

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"dard/internal/fpcmp"
	"dard/internal/topology"
	"dard/internal/trace"
)

// This file wires the internal/trace subsystem into the facade. A
// Scenario can either carry a caller-managed Tracer or name a TraceDir;
// in the latter case Run records the whole execution into a
// deterministically named JSONL file, one per experiment cell, so sweeps
// emit a browsable trace directory.

// DefaultTraceProbeInterval spaces utilization/queue/rate probes when
// TraceProbeInterval is left zero.
const DefaultTraceProbeInterval = 0.25

// probeInterval resolves the scenario's probe spacing: zero means the
// default, negative disables probing.
func (s Scenario) probeInterval() float64 {
	switch {
	case s.TraceProbeInterval < 0:
		return 0
	case fpcmp.IsZero(s.TraceProbeInterval):
		return DefaultTraceProbeInterval
	}
	return s.TraceProbeInterval
}

// traceMeta snapshots the resolved scenario and the topology's links into
// a trace header. Core marks links adjacent to the top tier, which is
// what the aggregator's bisection-bandwidth curve sums over.
func (s Scenario) traceMeta(topo *Topology) trace.Meta {
	g := topo.net.Graph()
	links := make([]trace.LinkMeta, g.NumLinks())
	for i := range links {
		l := g.Link(topology.LinkID(i))
		links[i] = trace.LinkMeta{
			ID:       int32(i),
			From:     g.Node(l.From).Name,
			To:       g.Node(l.To).Name,
			Capacity: l.Capacity,
			Core:     g.Node(l.From).Kind == topology.Core || g.Node(l.To).Kind == topology.Core,
		}
	}
	return trace.Meta{
		Topology:      topo.Name(),
		Scheduler:     string(s.Scheduler),
		Pattern:       string(s.Pattern),
		Engine:        string(s.Engine),
		Seed:          s.Seed,
		ProbeInterval: s.probeInterval(),
		Links:         links,
	}
}

// TraceFileName is the deterministic name of the scenario's trace file
// under TraceDir: topology, pattern, scheduler, and engine joined with
// underscores, sanitized to filesystem-safe characters.
func (s Scenario) TraceFileName() string {
	c := s.cell()
	return sanitizeFile(c[0]) + "_" + sanitizeFile(strings.Join(c[1:], "_")) + ".jsonl"
}

// cell is the scenario's grid identity: topology name, pattern,
// scheduler and engine, with defaults applied.
func (s Scenario) cell() []string {
	s = s.withDefaults()
	name := s.Topology.name()
	if s.Topo != nil {
		name = s.Topo.Name()
	}
	return []string{name, string(s.Pattern), string(s.Scheduler), string(s.Engine)}
}

// name renders the spec's topology name without building the network:
// the name the built network carries, or the bare kind when the kind is
// unknown.
func (spec TopologySpec) name() string {
	cfg, err := spec.config()
	if err != nil {
		return string(spec.Kind)
	}
	return cfg.Name()
}

// sanitizeFile maps characters outside [A-Za-z0-9._-] to '-'.
func sanitizeFile(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// writeTrace freezes the recorder and writes the JSONL file under
// TraceDir.
func (s Scenario) writeTrace(rec *trace.Recorder) error {
	if err := os.MkdirAll(s.TraceDir, 0o755); err != nil {
		return fmt.Errorf("dard: trace dir: %w", err)
	}
	path := filepath.Join(s.TraceDir, s.TraceFileName())
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dard: trace file: %w", err)
	}
	if err := trace.WriteJSONL(f, rec.Take()); err != nil {
		f.Close()
		return fmt.Errorf("dard: writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dard: closing trace %s: %w", path, err)
	}
	return nil
}
