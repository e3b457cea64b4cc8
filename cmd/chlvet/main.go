// Command chlvet is the repository's own vet tool: a multichecker over
// the five project-specific analyzers in internal/analysis, enforcing
// the invariants nine PRs of serving work established (the Clock
// discipline, pairKey/flightKeyFor key construction, the JSON error
// contract, distance bit-exactness, and the snapshot refcount rule).
//
// Usage:
//
//	go run ./cmd/chlvet ./...          # whole module (what go test ./... runs)
//	go run ./cmd/chlvet ./internal/... # a subtree
//	go run ./cmd/chlvet -only clockcheck,pairkey ./...
//	go run ./cmd/chlvet -list          # analyzer names + docs
//
// Diagnostics print as file:line:col: [analyzer] message (fix: hint).
// The exit status is 0 when the tree is clean, 1 when any finding
// survives //chlvet:allow filtering, and 2 when the tool itself fails
// (bad flags, unreadable or unparseable source). Source is parsed, never
// type-checked, so a run over the whole module takes a fraction of a
// second; go test ./... runs it too (TestRepositoryIsClean).
//
// A finding is suppressed — with a mandatory justification — by
// annotating the line (or the line above) with:
//
//	//chlvet:allow <analyzer> -- <why this line is exempt>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injectable so the end-to-end tests can
// drive the tool in-process as well as through the built binary.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chlvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only = fs.String("only", "", "comma-separated analyzer subset (default: all)")
		list = fs.Bool("list", false, "list analyzers and exit")
		dir  = fs.String("C", ".", "change to this directory before resolving patterns")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: chlvet [-C dir] [-only names] [package patterns]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*only)
	if err != nil {
		fmt.Fprintln(stderr, "chlvet:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "chlvet:", err)
		return 2
	}
	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "chlvet:", err)
		return 2
	}

	findings := 0
	failed := false
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintln(stderr, "chlvet:", err)
			failed = true
			continue
		}
		for _, d := range analysis.Run(pkg, analyzers) {
			fmt.Fprintln(stdout, shortenPath(d, loader.ModDir))
			findings++
		}
	}
	switch {
	case failed:
		return 2
	case findings > 0:
		fmt.Fprintf(stderr, "chlvet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// shortenPath renders a diagnostic with the filename relative to the
// module root, the way compilers and vets conventionally print.
func shortenPath(d analysis.Diagnostic, modDir string) string {
	s := d.String()
	if rel, ok := strings.CutPrefix(s, modDir+"/"); ok {
		return rel
	}
	return s
}
