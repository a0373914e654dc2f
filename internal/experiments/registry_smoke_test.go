package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the experiment goldens in testdata/golden")

// goldenDir holds one rendering per experiment at Quick() scale.
const goldenDir = "testdata/golden"

// wallClockExperiments report wall-clock readings, so they have no
// golden.
var wallClockExperiments = map[string]bool{"scale": true}

// expTag turns a result ID like "Table 4" into its artifact ID like
// "table4".
func expTag(id string) string {
	return strings.ReplaceAll(strings.ToLower(id), " ", "")
}

// goldenText renders a result's Text and its Values bit-exactly:
// sorted keys, shortest round-tripping float formatting.
func goldenText(res *Result) string {
	var b strings.Builder
	b.WriteString(res.String())
	b.WriteString("--- values ---\n")
	for _, k := range sortedKeys(res.Values) {
		fmt.Fprintf(&b, "%s %s\n", k, strconv.FormatFloat(res.Values[k], 'g', -1, 64))
	}
	return b.String()
}

// TestAllExperimentsRun executes every study end to end at the quick
// scale — the same sweep as `dardbench -scale quick` — running each
// once, and checks each artifact it renders: non-empty output and
// values, an ID whose expTag is the artifact's, and, for every
// deterministic artifact, a byte-for-byte match with its golden. Run
// with -update to rewrite the goldens. Skipped under -short.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	params := Quick()
	for _, s := range Studies() {
		results, err := s.Run(params)
		if err == nil && len(results) != len(s.Artifacts) {
			t.Fatalf("study of %q rendered %d results for %d artifacts", s.Artifacts[0].ID, len(results), len(s.Artifacts))
		}
		for i, a := range s.Artifacts {
			t.Run(a.ID, func(t *testing.T) {
				if err != nil {
					t.Fatal(err)
				}
				res := results[i]
				if strings.TrimSpace(res.Text) == "" {
					t.Error("empty rendering")
				}
				if len(res.Values) == 0 {
					t.Error("no values recorded")
				}
				if res.ID == "" || res.Title == "" {
					t.Error("missing metadata")
				}
				if expTag(res.ID) != a.ID {
					t.Errorf("result %q renders as %q, want artifact %q", res.ID, expTag(res.ID), a.ID)
				}
				if !strings.Contains(res.String(), res.ID) {
					t.Error("String() missing ID")
				}
				if wallClockExperiments[a.ID] {
					return
				}
				got := goldenText(res)
				path := filepath.Join(goldenDir, a.ID+".txt")
				if *updateGolden {
					if err := os.MkdirAll(goldenDir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s differs from %s\n--- want ---\n%s\n--- got ---\n%s", a.ID, path, want, got)
				}
			})
		}
	}
}
