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

// TestAllExperimentsRun executes every registered experiment end to end
// at the quick scale — the same sweep as `dardbench -scale quick` — and
// checks each produces non-empty output and values, and that every
// deterministic experiment matches its golden byte for byte. Run with
// -update to rewrite the goldens. Skipped under -short.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	params := Quick()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(params)
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(res.Text) == "" {
				t.Error("empty rendering")
			}
			if len(res.Values) == 0 {
				t.Error("no values recorded")
			}
			if res.ID == "" || res.Title == "" {
				t.Error("missing metadata")
			}
			if !strings.Contains(res.String(), res.ID) {
				t.Error("String() missing ID")
			}
			if wallClockExperiments[e.ID] {
				return
			}
			got := goldenText(res)
			path := filepath.Join(goldenDir, e.ID+".txt")
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
				t.Errorf("%s differs from %s\n--- want ---\n%s\n--- got ---\n%s", e.ID, path, want, got)
			}
		})
	}
}
