// Command chl builds a hub labeling index for a graph and reports the
// paper's key preprocessing metrics (construction time, average label size,
// label traffic for distributed builds).
//
// Usage:
//
//	chl -graph road.gr -out road.flat
//	chl -dataset SKIT -algo hybrid -nodes 16
//	chl -graph web.gr -directed
//
// The graph comes either from a file (-graph: DIMACS for a .gr file, a
// 0-indexed edge list otherwise, as chlquery and chlrouter read it) or a
// named synthetic dataset (-dataset, see -list). Without -algo the library
// picks the builder (PLaNT on undirected graphs, seqPLL on directed
// ones) and the output names the one that ran. -out freezes the index
// and writes the one index file format (exact uint32 unit counts), which
// cmd/chlquery -load answers from, serves, compresses and splits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	chl "repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "chl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chl", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "graph file to label (.gr DIMACS or edge list)")
		dataset   = fs.String("dataset", "", "named synthetic dataset (see -list)")
		scale     = fs.Float64("scale", 1, "scale factor for -dataset")
		directed  = fs.Bool("directed", false, "treat the input graph as directed")
		algo      = fs.String("algo", "", "algorithm: seqpll|sparapll|lcc|gll|plant|dparapll|dgll|dplant|hybrid (default: the library's choice — plant, or seqpll for a directed graph)")
		ranking   = fs.String("rank", "auto", "ranking: auto|degree|betweenness|identity")
		workers   = fs.Int("workers", 0, "shared-memory workers (0 = GOMAXPROCS)")
		nodes     = fs.Int("nodes", 4, "cluster nodes q for distributed algorithms")
		wpn       = fs.Int("workers-per-node", 1, "threads per cluster node")
		alpha     = fs.Float64("alpha", 0, "GLL synchronization threshold α (0 = 4; +Inf cleans once, at the end: LCC)")
		eta       = fs.Int("eta", 0, "common label table η of plant, dplant, hybrid and dgll: 0 = grow it batch by batch (dgll: none), η > 0 = the top η trees only (16 in the paper), -1 = off")
		psi       = fs.Float64("psi", 0, "Hybrid switch threshold Ψth (0 = 100)")
		seed      = fs.Int64("seed", 1, "seed for generation and ranking")
		out       = fs.String("out", "", "freeze the index and write it to this file (chlquery -load reads it)")
		list      = fs.Bool("list", false, "list dataset and algorithm names")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q (chl takes flags only)", fs.Args())
	}

	if *list {
		fmt.Fprintln(stdout, "datasets: ", strings.Join(chl.DatasetNames(), " "))
		fmt.Fprint(stdout, "algorithms:")
		for _, a := range chl.Algorithms() {
			fmt.Fprintf(stdout, " %s", a)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	g, err := loadGraph(*graphPath, *dataset, *scale, *directed, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: n=%d m=%d directed=%v\n", g.NumVertices(), g.NumEdges(), g.Directed())

	var ord *chl.Order
	switch *ranking {
	case "auto":
		// leave nil: Build picks per topology
	case "degree":
		ord = chl.RankByDegree(g)
	case "betweenness":
		ord = chl.RankByBetweenness(g, 16, *seed)
	case "identity":
		ord = chl.RankIdentity(g.NumVertices())
	default:
		return fmt.Errorf("unknown ranking %q", *ranking)
	}

	ix, err := chl.Build(g, chl.Options{
		Algorithm:      chl.Algorithm(*algo),
		Order:          ord,
		Workers:        *workers,
		Alpha:          *alpha,
		Nodes:          *nodes,
		WorkersPerNode: *wpn,
		Eta:            *eta,
		PsiThreshold:   *psi,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	st := ix.Stats()
	m := ix.Metrics()
	fmt.Fprintf(stdout, "index: labels=%d ALS=%.2f max=%d bytes=%d\n", st.TotalLabels, st.ALS, st.MaxLabels, st.Bytes)
	if m != nil {
		fmt.Fprintf(stdout, "build: %s\n", m) // leads with m.Algorithm, the builder that actually ran
		if m.Nodes > 0 {
			fmt.Fprintf(stdout, "cluster: traffic=%d bytes, syncs=%d, peak node storage=%d bytes\n",
				m.BytesSent, m.Synchronizations, m.MaxNodeBytes)
		}
	}
	if *out != "" {
		fx, err := ix.Freeze()
		if err != nil {
			return err
		}
		if err := fx.SaveFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved index to %s\n", *out)
	}
	return nil
}

func loadGraph(path, dataset string, scale float64, directed bool, seed int64) (*chl.Graph, error) {
	switch {
	case path != "" && dataset != "":
		return nil, fmt.Errorf("pass either -graph or -dataset, not both")
	case path != "":
		return chl.ReadGraphFile(path, directed)
	case dataset != "":
		return chl.GenerateDataset(dataset, scale, seed)
	default:
		return nil, fmt.Errorf("pass -graph FILE or -dataset NAME (try -list)")
	}
}
