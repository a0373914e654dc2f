package experiments

import "fmt"

// Artifact is one table or figure the suite renders: a paper artifact or
// one of the extension experiments.
type Artifact struct {
	// ID names it on the command line, e.g. "table4" or "figure13".
	ID string
	// Description summarizes what is reproduced.
	Description string
}

// Study runs one scenario grid once and renders every artifact drawn
// from it, so an artifact that is another view of the same runs (Table
// 5 of Table 4's, Figure 14 of Figure 13's) costs no simulation of its
// own.
type Study struct {
	// Artifacts lists what the study renders.
	Artifacts []Artifact
	// Run executes the grid and returns one Result per artifact, in
	// Artifacts order.
	Run func(Params) ([]*Result, error)
}

// Studies lists every study in paper order of its first artifact.
func Studies() []Study {
	return []Study{
		single("table1", "toy example convergence (Fig. 1 / Table 1)", func(Params) (*Result, error) { return Table1() }),
		single("tables2-3", "hierarchical addressing tables (Tables 2-3)", func(Params) (*Result, error) { return Tables2And3() }),
		single("figure4", "improvement vs flow rate on the testbed fabric", Figure4),
		{Artifacts: []Artifact{
			{"figure5", "testbed transfer-time CDF (packet engine)"},
			{"figure13", "DARD vs TeXCP transfer-time CDF"},
			{"figure14", "DARD vs TeXCP retransmission-rate CDF"},
		}, Run: TestbedStudy},
		single("figure6", "testbed path-switch CDF", Figure6),
		{Artifacts: []Artifact{
			{"figure7", "large fat-tree transfer-time CDFs"},
			{"figure8", "large fat-tree path-switch CDF"},
			{"table4", "average transfer times on fat-trees"},
			{"table5", "DARD path-switch percentiles on fat-trees"},
		}, Run: FatTreeStudy},
		{Artifacts: []Artifact{
			{"figure9", "large Clos transfer-time CDFs"},
			{"figure10", "large Clos path-switch CDF"},
			{"table6", "average transfer times on Clos topologies"},
			{"table7", "DARD path-switch percentiles on Clos topologies"},
		}, Run: ClosStudy},
		{Artifacts: []Artifact{
			{"figure11", "three-tier transfer-time CDFs"},
			{"figure12", "three-tier path-switch CDF"},
		}, Run: ThreeTierStudy},
		single("figure15", "control overhead vs workload", Figure15),
		single("theorem2", "Nash convergence of selfish dynamics (Appendix B)", func(p Params) (*Result, error) {
			return NashConvergence(50, p.Seed, p.Workers)
		}),
		single("scale", "flow-level engine wall clock vs fabric size", EngineScale),
		single("failure", "link blackout and repair under ECMP vs DARD", FailureRecovery),
		single("dragonfly", "DARD vs ECMP on dragonfly and DCell fabrics", DragonflyDCell),
	}
}

// single is the study of an experiment that renders one artifact.
func single(id, description string, run func(Params) (*Result, error)) Study {
	return Study{Artifacts: []Artifact{{id, description}}, Run: func(p Params) ([]*Result, error) {
		res, err := run(p)
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}}
}

// Find returns the study that renders the artifact with the given ID.
func Find(id string) (Study, error) {
	for _, s := range Studies() {
		for _, a := range s.Artifacts {
			if a.ID == id {
				return s, nil
			}
		}
	}
	return Study{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
