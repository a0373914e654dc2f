package main

import (
	"bytes"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dard/internal/lint"
)

var repoDiags = sync.OnceValues(func() ([]lint.Diagnostic, error) {
	return Check("../..", []string{"./..."}, lint.All())
})

// TestRepoIsClean runs the full analyzer suite over the whole module,
// exactly as CI does. A failure here means a determinism invariant was
// violated (or a suppression went stale) — fix the site or add a
// justified //dardlint comment, don't relax the analyzer.
func TestRepoIsClean(t *testing.T) {
	diags, err := repoDiags()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Unsuppressed(diags) {
		t.Errorf("%s", d)
	}
}

// TestSuppressionsAreJustified re-states the audit contract directly:
// every //dardlint comment in the tree carries a one-line
// justification. (The framework reports violations as "dardlint"
// meta-diagnostics, so TestRepoIsClean also catches them — this test
// names the rule.)
func TestSuppressionsAreJustified(t *testing.T) {
	diags, err := repoDiags()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "dardlint" && strings.Contains(d.Message, "justification") {
			t.Errorf("%s", d)
		}
	}
}

// TestRunAudit pins the -suppressed contract: the audit prints each
// silenced finding with its justification, surfaces hygiene
// meta-diagnostics as stale, and fails exactly when one is present.
func TestRunAudit(t *testing.T) {
	suppressed := lint.Diagnostic{
		Pos:           token.Position{Filename: "engine.go", Line: 10, Column: 2},
		Analyzer:      "ordered",
		Message:       "map iteration order reaches an order-sensitive effect",
		Suppressed:    true,
		Justification: "per-flow writes are disjoint",
	}
	stale := lint.Diagnostic{
		Pos:      token.Position{Filename: "engine.go", Line: 20, Column: 2},
		Analyzer: "dardlint",
		Message:  `unused suppression //dardlint:floateq (no floateq finding here)`,
	}

	var out strings.Builder
	if !runAudit([]lint.Diagnostic{suppressed}, &out) {
		t.Errorf("audit with only valid suppressions should pass; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "per-flow writes are disjoint") {
		t.Errorf("audit output should carry the justification, got:\n%s", out.String())
	}

	out.Reset()
	if runAudit([]lint.Diagnostic{suppressed, stale}, &out) {
		t.Errorf("audit with a stale suppression should fail; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "[stale]") {
		t.Errorf("audit output should mark the hygiene finding stale, got:\n%s", out.String())
	}
}

// TestAuditOnRepoIsClean runs the audit over the module's real
// diagnostics: every suppression in the tree must be in use and
// justified, or -suppressed (and CI) starts failing.
func TestAuditOnRepoIsClean(t *testing.T) {
	diags, err := repoDiags()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if !runAudit(diags, &out) {
		t.Errorf("suppression audit failed:\n%s", out.String())
	}
}

// TestSnapfieldCatchesNewField is the end-to-end mutation test for the
// snapshot-completeness analyzer: copy the module, grow a registered
// struct (OpenPoisson) by one field that neither the encoder nor the
// decoder knows about, and the sweep must name it. This is the whole
// point of the registry — a new field cannot land without a checkpoint
// decision.
func TestSnapfieldCatchesNewField(t *testing.T) {
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	copyFile(t, filepath.Join(root, "go.mod"), filepath.Join(tmp, "go.mod"))
	for _, dir := range []string{
		"internal/workload", "internal/detrand", "internal/evq",
		"internal/fpcmp", "internal/snap", "internal/topology",
	} {
		copyDir(t, filepath.Join(root, dir), filepath.Join(tmp, dir))
	}

	openPath := filepath.Join(tmp, "internal", "workload", "open.go")
	src, err := os.ReadFile(openPath)
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Replace(src, []byte("\tnextID int\n"), []byte("\tnextID int\n\tburst  float64\n"), 1)
	if bytes.Equal(mutated, src) {
		t.Fatal("mutation anchor `nextID int` not found in open.go")
	}
	if err := os.WriteFile(openPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}

	diags, err := Check(tmp, []string{"./internal/workload"}, []*lint.Analyzer{lint.Snapfield})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range lint.Unsuppressed(diags) {
		if d.Analyzer == "snapfield" && strings.Contains(d.Message, "field burst of snapshotted struct OpenPoisson") {
			found = true
		}
	}
	if !found {
		t.Errorf("snapfield missed the new uncovered field; diagnostics:\n%v", diags)
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			copyDir(t, filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name()))
			continue
		}
		copyFile(t, filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name()))
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFindModuleRoot pins the root discovery used by the CLI.
func TestFindModuleRoot(t *testing.T) {
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %q has no go.mod: %v", root, err)
	}
}
