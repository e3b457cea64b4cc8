// Command graphgen writes synthetic benchmark graphs in DIMACS .gr or edge
// list format, with reproducible seeds. The named datasets are the
// laptop-scale twins of the paper's Table 2 (chl.GenerateDataset; cmd/chl
// -list names them).
//
// Usage:
//
//	graphgen -dataset CAL -o cal.gr
//	graphgen -kind road -rows 128 -cols 128 -o grid.gr
//	graphgen -kind scalefree -n 10000 -k 4 -format edgelist -o ba.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	chl "repro"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "named dataset (see cmd/chl -list)")
		scale   = flag.Float64("scale", 1, "scale factor for -dataset")
		kind    = flag.String("kind", "", "custom generator: road|scalefree|random|directed")
		rows    = flag.Int("rows", 64, "road: grid rows")
		cols    = flag.Int("cols", 64, "road: grid columns")
		n       = flag.Int("n", 4096, "scalefree/random: vertex count")
		k       = flag.Int("k", 3, "scalefree: edges per new vertex")
		m       = flag.Int("m", 0, "random: edge count (0 = 4n)")
		maxW    = flag.Int("maxw", 16, "random: maximum weight")
		seed    = flag.Int64("seed", 1, "generator seed")
		format  = flag.String("format", "dimacs", "output format: dimacs|edgelist")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q (graphgen takes flags only)", flag.Args()))
	}

	var g *chl.Graph
	var err error
	switch {
	case *dataset != "":
		g, err = chl.GenerateDataset(*dataset, *scale, *seed)
	case *kind != "":
		if *m == 0 {
			*m = 4 * *n
		}
		switch strings.ToLower(*kind) {
		case "road":
			g = chl.GenerateRoadGrid(*rows, *cols, *seed)
		case "scalefree":
			g = chl.GenerateScaleFree(*n, *k, *seed)
		case "random":
			g = chl.GenerateRandom(*n, *m, *maxW, *seed)
		case "directed":
			g = chl.GenerateRandomDirected(*n, *m, *maxW, *seed)
		default:
			err = fmt.Errorf("unknown kind %q", *kind)
		}
	default:
		err = fmt.Errorf("pass -dataset NAME or -kind KIND")
	}
	if err != nil {
		fatal(err)
	}

	w := os.Stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			fatal(err)
		}
		w = f
	}
	switch *format {
	case "dimacs":
		err = chl.WriteDIMACS(w, g)
	case "edgelist":
		err = chl.WriteEdgeList(w, g)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	// Close errors on the write path are data loss (a full disk often
	// only surfaces here); a deferred close would swallow them.
	if f != nil {
		if err := f.Close(); err != nil {
			fatal(fmt.Errorf("writing %s: %w", *out, err))
		}
	}
	fmt.Fprintf(os.Stderr, "graphgen: n=%d m=%d directed=%v\n", g.NumVertices(), g.NumEdges(), g.Directed())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
