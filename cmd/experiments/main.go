// Command experiments regenerates every table and figure of the paper's
// evaluation section (§7) on the synthetic dataset suite and writes a text
// report. This is the reproduction entry point: README.md, "Reproducing the
// paper's evaluation", says what to compare its output against.
//
// Usage:
//
//	experiments                     # quick suite, report to stdout
//	experiments -o report.txt       # write to a file
//	experiments -full -scale 2      # all 12 datasets, larger graphs
//	experiments -only table3,fig8   # a subset of experiments
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		scale   = flag.Float64("scale", 1, "dataset scale factor")
		seed    = flag.Int64("seed", 1, "generation seed")
		workers = flag.Int("workers", 0, "shared-memory workers (0 = GOMAXPROCS)")
		full    = flag.Bool("full", false, "include the large datasets (CTR, USA, POK, LIJ) and q up to 64")
		batch   = flag.Int("queries", 100_000, "query batch size for Table 4")
		only    = flag.String("only", "", "comma-separated subset: "+strings.Join(exp.Names(), ","))
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q (experiments takes flags only)", flag.Args()))
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = f
	}

	cfg := exp.Config{
		Scale:      *scale,
		Seed:       *seed,
		Workers:    *workers,
		Full:       *full,
		QueryBatch: *batch,
	}.Defaults()

	if err := runReport(w, cfg, *only); err != nil {
		fatal(err)
	}
	// A report that took an hour to compute must not lose its tail to a
	// swallowed close error (a full disk often only surfaces here).
	if f != nil {
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *out, err))
		}
	}
}

func runReport(w io.Writer, cfg exp.Config, only string) error {
	if only == "" {
		exp.RunAll(w, cfg)
		return nil
	}
	var run []exp.Experiment
	for _, name := range strings.Split(only, ",") {
		e, err := exp.Lookup(name)
		if err != nil {
			return err
		}
		run = append(run, e)
	}
	for _, e := range run {
		e.Run(w, cfg)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
