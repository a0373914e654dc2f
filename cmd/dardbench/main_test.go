package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 22 {
		t.Errorf("-list printed %d lines, want 22:\n%s", n, out.String())
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-scale", "quick", "-run", "table1,tables2-3,theorem2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunSelectsArtifacts: -run prints only the artifacts it names, and
// artifacts of one study share one run of it.
func TestRunSelectsArtifacts(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "quick", "-run", "table5"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "=== ") != 1 || !strings.Contains(got, "=== Table 5:") {
		t.Errorf("-run table5 should print Table 5 alone:\n%s", got)
	}

	out.Reset()
	if err := run([]string{"-scale", "quick", "-run", "figure7,table4"}, &out); err != nil {
		t.Fatal(err)
	}
	got = out.String()
	for _, want := range []string{"=== Figure 7:", "=== Table 4:", "\n(figure7,table4 in ", "total: 2 experiments from 1 studies"} {
		if !strings.Contains(got, want) {
			t.Errorf("-run figure7,table4 output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "=== "); n != 2 {
		t.Errorf("-run figure7,table4 printed %d artifacts, want 2", n)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scale", "nosuch"}, io.Discard); err == nil {
		t.Error("unknown scale should fail")
	}
	if err := run([]string{"-run", "nosuch"}, io.Discard); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestRunParallel overlaps whole studies on the worker pool; the
// selected studies span the game model and the flow engine.
func TestRunParallel(t *testing.T) {
	if err := run([]string{"-scale", "quick", "-parallel", "4", "-run", "table1,theorem2,figure6"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scale", "quick", "-parallel", "1", "-run", "theorem2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}
