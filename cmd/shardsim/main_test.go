package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// Unknown experiment names must fail loudly (exit 2) and print the valid
// experiment list — a typo'd -exp exiting 0 would let CI pass while
// benchmarking nothing.
func TestUnknownExperimentErrors(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "fig99"}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown experiment "fig99"`) {
		t.Fatalf("stderr missing error: %s", errOut.String())
	}
	for _, id := range []string{"fig8", "table2", "eq1"} {
		if !strings.Contains(errOut.String(), id) {
			t.Fatalf("stderr missing valid experiment %s:\n%s", id, errOut.String())
		}
	}
	// A bad id buried in a comma list fails the same way, before any
	// experiment runs.
	if code := run([]string{"-exp", "table2,nope"}, &out, &errOut); code != 2 {
		t.Fatalf("comma-list exit code = %d, want 2", code)
	}
}

func TestUnknownScaleErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "table2", "-scale", "paper"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "smoke") {
		t.Fatalf("stderr should list valid scales: %s", errOut.String())
	}
}

// A bare "-" is a positional to flag.Parse; it must be rejected as an
// unexpected argument, not hang or run anything.
func TestBareDashDoesNotHang(t *testing.T) {
	done := make(chan int, 1)
	go func() {
		var out, errOut strings.Builder
		done <- run([]string{"-list", "-"}, &out, &errOut)
	}()
	select {
	case code := <-done:
		if code != 2 {
			t.Fatalf("exit code = %d, want 2 (unexpected positional)", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run hung on a bare '-' argument")
	}
}

func TestListExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "fig8") {
		t.Fatalf("list missing experiments:\n%s", out.String())
	}
}

// End to end: run a static experiment, write JSON, render it, and render
// it next to a relabeled copy as a two-session trajectory.
func TestRunReportCompareEndToEnd(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "eq1,eq2", "-scale", "smoke", "-json", jsonPath},
		&out, &errOut); code != 0 {
		t.Fatalf("run failed (%d): %s", code, errOut.String())
	}

	mdPath := filepath.Join(dir, "EXPERIMENTS.md")
	if code := run([]string{"-report", jsonPath, "-o", mdPath}, &out, &errOut); code != 0 {
		t.Fatalf("-report failed (%d): %s", code, errOut.String())
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# EXPERIMENTS", "Equation 1", "% of paper"} {
		if !strings.Contains(string(md), want) {
			t.Fatalf("rendered EXPERIMENTS.md missing %q:\n%s", want, md)
		}
	}

	rep, err := bench.ReadReportFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	rep.Label = "second"
	secondPath := filepath.Join(dir, "second.json")
	if err := rep.WriteFile(secondPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"-report", jsonPath + "," + secondPath}, &out, &errOut); code != 0 {
		t.Fatalf("two-report -report failed (%d): %s", code, errOut.String())
	}
	for _, want := range []string{"## Trajectory", "second (smoke)"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("trajectory render missing %q:\n%s", want, out.String())
		}
	}

	// Reports are named only through -report's comma form.
	if code := run([]string{"-report", jsonPath, secondPath}, &out, &errOut); code != 2 {
		t.Fatalf("positional report path: exit %d, want 2", code)
	}
}
