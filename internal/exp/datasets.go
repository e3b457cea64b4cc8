// Package exp is the evaluation harness: one driver per table and figure of
// the paper's §7, each printing the same rows/series the paper reports.
// Absolute numbers differ (the substrate is a laptop-scale simulation, not
// the authors' 36-core server and 64-node cluster), but the
// shapes the paper's claims rest on are asserted in exp's tests and
// recorded in EXPERIMENTS.md.
package exp

import (
	"math"

	"repro/internal/graph"
	"repro/internal/order"
)

// Dataset describes one synthetic stand-in for a paper dataset (Table 2).
type Dataset struct {
	// Name is the paper's dataset name (CAL, SKIT, ...).
	Name string
	// Description mirrors Table 2's description column.
	Description string
	// Kind is "road" or "scalefree"; it selects the ranking function and
	// the Ψth setting, as in §7.1.
	Kind string
	// Large marks datasets only included in -full runs (the paper's CTR,
	// USA, POK, LIJ rows, where even the authors' baselines time out).
	Large bool
	// Gen builds the graph at the given scale.
	Gen func(scale float64, seed int64) *graph.Graph
}

// PsiThreshold returns the Hybrid switch threshold for this dataset's
// topology (§7.1: "we set Ψth = 100 for scale-free networks and Ψth = 500
// for road networks").
func (d Dataset) PsiThreshold() float64 {
	if d.Kind == "road" {
		return 500
	}
	return 100
}

// Order computes the paper's ranking for this dataset: approximate
// betweenness for road networks, degree for scale-free networks (§7.1.1).
// workers bounds the betweenness samples planted at once (0 = GOMAXPROCS).
func (d Dataset) Order(g *graph.Graph, seed int64, workers int) *order.Order {
	if d.Kind == "road" {
		return order.ByApproxBetweenness(g, 16, seed, workers)
	}
	return order.ByDegree(g)
}

func road(baseSide int) func(scale float64, seed int64) *graph.Graph {
	return func(scale float64, seed int64) *graph.Graph {
		side := int(float64(baseSide) * math.Sqrt(scale))
		if side < 4 {
			side = 4
		}
		return graph.RoadGrid(side, side, seed)
	}
}

func scalefree(baseN, k int) func(scale float64, seed int64) *graph.Graph {
	return func(scale float64, seed int64) *graph.Graph {
		n := int(float64(baseN) * scale)
		if n < 32 {
			n = 32
		}
		return graph.BarabasiAlbert(n, k, seed)
	}
}

// Suite returns the dataset suite in the paper's Table 2 order. The
// directed paper datasets (WND, BDU, POK, LIJ) are represented by
// undirected twins: every §7 experiment treats them through the undirected
// code path (the paper's algorithms are described for undirected graphs;
// directed support is exercised by dedicated tests instead).
func Suite(full bool) []Dataset {
	all := []Dataset{
		{Name: "CAL", Description: "California road network (twin)", Kind: "road", Gen: road(64)},
		{Name: "EAS", Description: "East USA road network (twin)", Kind: "road", Gen: road(88)},
		{Name: "CTR", Description: "Center USA road network (twin)", Kind: "road", Large: true, Gen: road(120)},
		{Name: "USA", Description: "Full USA road network (twin)", Kind: "road", Large: true, Gen: road(152)},
		{Name: "SKIT", Description: "Skitter AS links (twin)", Kind: "scalefree", Gen: scalefree(2048, 3)},
		{Name: "WND", Description: "Notre Dame web (undirected twin)", Kind: "scalefree", Gen: scalefree(3072, 5)},
		{Name: "AUT", Description: "Citeseer collaboration (twin)", Kind: "scalefree", Gen: scalefree(4096, 4)},
		{Name: "YTB", Description: "Youtube social network (twin)", Kind: "scalefree", Gen: scalefree(8192, 3)},
		{Name: "ACT", Description: "Actor collaboration (twin)", Kind: "scalefree", Gen: scalefree(3072, 12)},
		{Name: "BDU", Description: "Baidu hyperlinks (undirected twin)", Kind: "scalefree", Gen: scalefree(8192, 4)},
		{Name: "POK", Description: "Pokec social network (twin)", Kind: "scalefree", Large: true, Gen: scalefree(10240, 8)},
		{Name: "LIJ", Description: "LiveJournal (undirected twin)", Kind: "scalefree", Large: true, Gen: scalefree(16384, 5)},
	}
	if full {
		return all
	}
	out := all[:0:0]
	for _, d := range all {
		if !d.Large {
			out = append(out, d)
		}
	}
	return out
}

// ByName returns the named dataset from the full suite.
func ByName(name string) (Dataset, bool) {
	for _, d := range Suite(true) {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every dataset's baseline size (1 targets seconds
	// per experiment on a laptop).
	Scale float64
	// Seed feeds graph generation and rankings.
	Seed int64
	// Workers is the shared-memory thread count (0 = GOMAXPROCS).
	Workers int
	// Full includes the Large datasets and the q=64 scaling points.
	Full bool
	// QueryBatch is the number of queries for Table 4's throughput runs.
	QueryBatch int
	// LatencyQueries is the number of single-query latency samples.
	LatencyQueries int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.QueryBatch <= 0 {
		c.QueryBatch = 100_000
	}
	if c.LatencyQueries <= 0 {
		c.LatencyQueries = 10_000
	}
	return c
}

// prepared is a dataset instantiated at a scale, in rank space.
type prepared struct {
	ds     Dataset
	g      *graph.Graph // original
	ranked *graph.Graph // permuted so id = rank
	n      int
}

func (c Config) prepare(ds Dataset) prepared {
	g := ds.Gen(c.Scale, c.Seed)
	ord := ds.Order(g, c.Seed, c.Workers)
	rg, _ := g.Permute(ord.Perm)
	return prepared{ds: ds, g: g, ranked: rg, n: g.NumVertices()}
}
