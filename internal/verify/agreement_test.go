package verify_test

// The agreement experiment (X1): seqPLL, LCC, GLL, shared-memory PLaNT and
// the distributed algorithms (DGLL, PLaNT, Hybrid at several cluster sizes)
// must all emit the *identical* Canonical Hub Labeling, which in turn must
// pass the first-principles CHL contract. This is the strongest single
// correctness statement in the paper ("the same CHL ... irrespective of q",
// §7.3) and the backbone of this test suite.

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/gll"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/lcc"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/pll"
	"repro/internal/verify"
)

// testGraphs returns the topology zoo used across the agreement tests.
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"figure1":    graph.Figure1(),
		"path":       graph.Path(17, 2),
		"cycle":      graph.Cycle(12, 3),
		"star":       graph.Star(9, 1),
		"complete":   graph.Complete(8, 5),
		"grid":       graph.RoadGrid(7, 9, 1),
		"ba":         graph.BarabasiAlbert(80, 3, 2),
		"er-sparse":  graph.ErdosRenyi(60, 90, 8, 3),
		"er-dense":   graph.ErdosRenyi(40, 300, 4, 4),
		"er-discon":  graph.ErdosRenyi(50, 30, 6, 5), // almost surely disconnected
		"smallworld": graph.SmallWorld(48, 2, 0.2, 6),
		"single":     graph.Path(1, 1),
		"two":        graph.Path(2, 7),
	}
}

func chlReference(tb testing.TB, g *graph.Graph) *label.Index {
	tb.Helper()
	ix, _ := pll.Sequential(g, pll.Options{})
	return ix
}

func TestSequentialPLLIsCHL(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ix := chlReference(t, g)
			if err := verify.IsCHL(g, ix); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCanonicalAgreementSharedMemory(t *testing.T) {
	algos := map[string]func(*graph.Graph) *label.Index{
		"LCC": func(g *graph.Graph) *label.Index {
			ix, _ := lcc.Run(g, lcc.Options{Workers: 4})
			return ix
		},
		"GLL": func(g *graph.Graph) *label.Index {
			ix, _ := gll.Run(g, gll.Options{Workers: 4, Alpha: 2})
			return ix
		},
		"PLaNT": func(g *graph.Graph) *label.Index {
			ix, _ := plant.Run(g, plant.Options{Workers: 4})
			return ix
		},
		"PLaNT-common": func(g *graph.Graph) *label.Index {
			ix, _ := plant.Run(g, plant.Options{Workers: 4, Eta: 8})
			return ix
		},
	}
	for gname, g := range testGraphs(t) {
		want := chlReference(t, g)
		for aname, run := range algos {
			t.Run(fmt.Sprintf("%s/%s", aname, gname), func(t *testing.T) {
				got := run(g)
				if diff := want.Diff(got); diff != "" {
					t.Fatalf("%s output differs from CHL: %s", aname, diff)
				}
			})
		}
	}
}

// TestCleaningReadsWhatNoOneWrites is the -race regression test for the
// cleaning pass every cleaning constructor now shares (ptree.Clean): a worker
// deciding the labels of v merge-joins the sets of v's hubs, which other
// workers are deciding at the same moment, so nothing may be compacted in
// place. The grid is large enough that the passes of four workers overlap;
// run without -race it still pins the CHL.
func TestCleaningReadsWhatNoOneWrites(t *testing.T) {
	g := graph.RoadGrid(32, 32, 1)
	want := chlReference(t, g)
	for name, run := range map[string]func() (*label.Index, *metrics.Build){
		"LCC": func() (*label.Index, *metrics.Build) { return lcc.Run(g, lcc.Options{Workers: 4}) },
		"GLL": func() (*label.Index, *metrics.Build) { return gll.Run(g, gll.Options{Workers: 4}) },
		"DGLL": func() (*label.Index, *metrics.Build) {
			res, err := dist.DGLL(g, dist.Options{Nodes: 2, WorkersPerNode: 4})
			if err != nil {
				t.Fatal(err)
			}
			return res.Index, res.Metrics
		},
	} {
		got, m := run()
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
		if m.LabelsCleaned == 0 {
			t.Fatalf("%s: nothing was cleaned: the fixture no longer exercises the cleaning pass", name)
		}
	}
}

func TestCanonicalAgreementDistributed(t *testing.T) {
	type distAlgo func(*graph.Graph, dist.Options) (*dist.Result, error)
	algos := map[string]distAlgo{
		"DGLL":        dist.DGLL,
		"DGLL-common": func(g *graph.Graph, o dist.Options) (*dist.Result, error) { o.Eta = 8; return dist.DGLL(g, o) },
		"PLaNT":       dist.PLaNT,
		"PLaNT-noCommon": func(g *graph.Graph, o dist.Options) (*dist.Result, error) {
			o.Eta = -1
			return dist.PLaNT(g, o)
		},
		"Hybrid": dist.Hybrid,
		"Hybrid-psiSmall": func(g *graph.Graph, o dist.Options) (*dist.Result, error) {
			o.PsiThreshold = 1.01
			return dist.Hybrid(g, o)
		},
	}
	for gname, g := range testGraphs(t) {
		want := chlReference(t, g)
		for aname, run := range algos {
			for _, q := range []int{1, 2, 5} {
				t.Run(fmt.Sprintf("%s/%s/q=%d", aname, gname, q), func(t *testing.T) {
					res, err := run(g, dist.Options{Nodes: q, WorkersPerNode: 2})
					if err != nil {
						t.Fatal(err)
					}
					if diff := want.Diff(res.Index); diff != "" {
						t.Fatalf("%s (q=%d) differs from CHL: %s", aname, q, diff)
					}
				})
			}
		}
	}
}

// notBelowCHL checks the one size bound a covering labeling owes the CHL.
// The CHL is minimal among labelings that respect R (Lemma 1), not among
// all covers: paraPLL issues no rank queries, so a tree that runs ahead of
// a higher-ranked one may label a vertex that outranks its root, and a
// labeling with such hubs can cover everything with fewer labels than the
// CHL has. Only with zero hierarchy violations (hub id > vertex id) is
// "fewer than the CHL" impossible.
func notBelowCHL(t *testing.T, g *graph.Graph, ix *label.Index) {
	t.Helper()
	violations := 0
	for v := 0; v < ix.NumVertices(); v++ {
		for _, l := range ix.Labels(v) {
			if int(l.Hub) > v {
				violations++
			}
		}
	}
	if got, chl := ix.TotalLabels(), chlReference(t, g).TotalLabels(); violations == 0 && got < chl {
		t.Fatalf("%d labels, none violating the hierarchy, yet the CHL has %d — a cover that respects R cannot undercut it", got, chl)
	} else if got < chl {
		t.Logf("%d labels undercut the CHL's %d with %d hierarchy violations: allowed", got, chl, violations)
	}
}

// TestSparaPLLCoversButMayBeRedundant: the baseline must satisfy the cover
// property (exact distances) even though its labeling need not be minimal.
func TestSparaPLLCoversButMayBeRedundant(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ix, _ := pll.SParaPLL(g, pll.Options{Workers: 4})
			if err := ix.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := verify.Cover(g, ix, 0); err != nil {
				t.Fatal(err)
			}
			notBelowCHL(t, g, ix)
		})
	}
}

// TestDParaPLLCovers: the distributed baseline keeps the cover property at
// any q, with label counts ≥ CHL whenever it respects R (notBelowCHL).
func TestDParaPLLCovers(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, q := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/q=%d", name, q), func(t *testing.T) {
				res, err := dist.DParaPLL(g, dist.Options{Nodes: q, WorkersPerNode: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := verify.Cover(g, res.Index, 0); err != nil {
					t.Fatal(err)
				}
				notBelowCHL(t, g, res.Index)
			})
		}
	}
}
