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
		only    = flag.String("only", "", "comma-separated subset: intro,table3,table4,fig2..fig9,x2,x3,x4")
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
	for _, name := range strings.Split(only, ",") {
		switch strings.TrimSpace(strings.ToLower(name)) {
		case "intro":
			exp.WriteQueryBaselines(w, exp.QueryBaselines(cfg))
		case "table3":
			exp.WriteTable3(w, exp.Table3(cfg))
		case "table4":
			exp.WriteTable4(w, exp.Table4(cfg))
		case "fig2":
			exp.WriteFigure2(w, exp.Figure2(cfg))
		case "fig3":
			exp.WriteFigure3(w, exp.Figure3(cfg))
		case "fig4":
			exp.WriteFigure4(w, exp.Figure4(cfg))
		case "fig5":
			exp.WriteFigure5(w, exp.Figure5(cfg))
		case "fig6":
			exp.WriteFigure6(w, exp.Figure6(cfg))
		case "fig7":
			exp.WriteFigure7(w, exp.Figure7(cfg))
		case "fig8":
			exp.WriteFigure8(w, exp.Figure8(cfg))
		case "fig9":
			exp.WriteFigure9(w, exp.Figure9(cfg))
		case "x2":
			exp.WriteAblationCommonTable(w, exp.AblationCommonTable(cfg))
		case "x3":
			exp.WriteAblationTwoTables(w, exp.AblationTwoTables(cfg))
		case "x4":
			exp.WriteAblationPlantFirst(w, exp.AblationPlantFirst(cfg))
		default:
			return fmt.Errorf("unknown experiment %q (have intro, table3, table4, fig2..fig9, x2, x3, x4)", name)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
