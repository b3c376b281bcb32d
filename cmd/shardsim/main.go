// Command shardsim regenerates the paper's tables and figures on the
// discrete-event simulator and renders the resulting reports.
//
// Usage:
//
//	shardsim -list
//	shardsim -exp fig8[,fig9,...] [-scale smoke|quick|standard|full] [-workers N] [-json out.json]
//	shardsim -exp all  [-scale ...]
//	shardsim -report out.json[,more.json...] [-o EXPERIMENTS.md]
//
// Independent sweep points of an experiment run concurrently on a bounded
// worker pool (default GOMAXPROCS; see -workers); results are bit-identical
// at any width. -json writes a machine-readable BENCH_*.json report of the
// session, including every table's content, so -report can render the
// figure-keyed EXPERIMENTS.md offline. Given several reports, -report
// also renders their key metrics side by side as a trajectory table.
// The simulator is deterministic, so the regression check is exact: the
// smoke tier must reproduce every table in BENCH_smoke.json byte for
// byte (go test ./internal/bench/, and CI's EXPERIMENTS.md diff).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the CLI's exit codes and
// output are unit-testable. Exit codes: 0 ok, 1 I/O failure, 2 usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shardsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID    = fs.String("exp", "", "comma-separated experiment ids (e.g. fig8,table2) or 'all'")
		scale    = fs.String("scale", "standard", strings.Join(bench.ScaleNames(), " | "))
		list     = fs.Bool("list", false, "list experiments")
		workers  = fs.Int("workers", 0, "experiment worker pool width (0 = GOMAXPROCS)")
		jsonPath = fs.String("json", "", "write a machine-readable benchmark report to this path")
		repPath  = fs.String("report", "", "render comma-separated BENCH_*.json files as markdown (EXPERIMENTS.md) instead of running experiments")
		outPath  = fs.String("o", "", "output path for -report markdown (default stdout)")
		label    = fs.String("label", "", "label recorded in the -json report (default \"shardsim -exp <ids>\")")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected arguments: %v\n", fs.Args())
		return 2
	}
	bench.SetWorkers(*workers)
	if *repPath != "" {
		return runReport(strings.Split(*repPath, ","), *outPath, stdout, stderr)
	}

	if *list || *expID == "" {
		printExperiments(stdout)
		if *expID == "" && !*list {
			fmt.Fprintln(stdout, "\nrun one with: shardsim -exp <id>")
		}
		return 0
	}

	s, ok := bench.ScaleByName(*scale)
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q (valid: %s)\n", *scale, strings.Join(bench.ScaleNames(), ", "))
		return 2
	}

	// Resolve every requested experiment before running any, so a typo
	// fails fast with the valid list instead of exiting 0 after partial
	// (or no) work.
	var exps []bench.Experiment
	for _, id := range strings.Split(*expID, ",") {
		id = strings.TrimSpace(id)
		if id == "all" {
			exps = append(exps, bench.All()...)
			continue
		}
		e, ok := bench.Get(id)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q; valid experiments:\n", id)
			printExperimentList(stderr)
			return 2
		}
		exps = append(exps, e)
	}

	if *label == "" {
		*label = "shardsim -exp " + *expID
	}
	rep := bench.NewReport(*label)
	rep.SetScale(s)
	for _, e := range exps {
		start := time.Now()
		t := e.Run(s)
		elapsed := time.Since(start)
		t.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s regenerated in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		rep.AddTable(e.ID, e.Title, elapsed, t)
	}
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(stderr, "writing report: %v\n", err)
			return 1
		}
	}
	return 0
}

func runReport(paths []string, outPath string, stdout, stderr io.Writer) int {
	reports, err := report.LoadAll(paths...)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	var buf bytes.Buffer
	if err := report.Render(&buf, reports...); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	return emit(&buf, outPath, stdout, stderr)
}

// emit writes rendered markdown to outPath (or stdout when empty),
// surfacing short writes — a silently truncated EXPERIMENTS.md would
// defeat the CI staleness check.
func emit(buf *bytes.Buffer, outPath string, stdout, stderr io.Writer) int {
	if outPath == "" {
		_, err := stdout.Write(buf.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		return 0
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 1
	}
	return 0
}

func printExperiments(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	printExperimentList(w)
}

func printExperimentList(w io.Writer) {
	for _, e := range bench.All() {
		fmt.Fprintf(w, "  %-8s %s\n", e.ID, e.Title)
	}
}
