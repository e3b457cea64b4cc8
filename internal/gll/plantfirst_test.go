package gll

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/verify"
)

func TestRunPlantFirstProducesCHL(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.ErdosRenyi(60, 140, 6, seed)
		want, _ := pll.Sequential(g, pll.Options{})
		for _, workers := range []int{1, 4} {
			ix, m := RunPlantFirst(g, Options{Workers: workers, Alpha: 2})
			if diff := want.Diff(ix); diff != "" {
				t.Fatalf("seed %d workers %d: %s", seed, workers, diff)
			}
			if err := verify.IsCHL(g, ix); err != nil {
				t.Fatal(err)
			}
			if m.Synchronizations < 1 {
				t.Fatal("no supersteps recorded")
			}
		}
	}
}

func TestRunPlantFirstSkipsFirstCleaning(t *testing.T) {
	g := graph.RoadGrid(9, 9, 1)
	_, plain := Run(g, Options{Workers: 2, Alpha: 2})
	_, pf := RunPlantFirst(g, Options{Workers: 2, Alpha: 2})
	// The PLaNTed superstep contributes zero cleaning queries; the rest of
	// the run cleans as usual, so the total must drop.
	if pf.CleanQueries >= plain.CleanQueries {
		t.Fatalf("PLaNT-first clean queries %d not below plain GLL %d", pf.CleanQueries, plain.CleanQueries)
	}
	// And no labels are ever cleaned out of the first superstep's commit:
	// generated == final + cleaned must still hold.
	if pf.LabelsGenerated != pf.Labels+pf.LabelsCleaned {
		t.Fatalf("label accounting broken: %d != %d + %d", pf.LabelsGenerated, pf.Labels, pf.LabelsCleaned)
	}
}

func TestRunPlantFirstTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(1, 1),
		graph.Path(2, 3),
		graph.Star(5, 1),
	} {
		want, _ := pll.Sequential(g, pll.Options{})
		ix, _ := RunPlantFirst(g, Options{Workers: 2})
		if diff := want.Diff(ix); diff != "" {
			t.Fatal(diff)
		}
	}
}

// TestRunPlantFirstMatchesRunPinnedFixtures runs both GLL variants on the
// road and scale-free fixtures of the root package's
// TestBuilderContentHashPinned, ranked as it ranks them: PLaNTing the
// first superstep must not move a single label.
func TestRunPlantFirstMatchesRunPinnedFixtures(t *testing.T) {
	road := graph.RoadGrid(32, 32, 1)
	sf := graph.BarabasiAlbert(1024, 3, 1)
	for _, fx := range []struct {
		name string
		g    *graph.Graph
		ord  *order.Order
	}{
		{"road", road, order.ByApproxBetweenness(road, 32, 1, 0)},
		{"scale-free", sf, order.ByDegree(sf)},
	} {
		rg, _ := fx.g.Permute(fx.ord.Perm)
		want, _ := Run(rg, Options{Workers: 2})
		got, _ := RunPlantFirst(rg, Options{Workers: 2})
		if diff := want.Diff(got); diff != "" {
			t.Fatalf("%s: RunPlantFirst differs from Run: %s", fx.name, diff)
		}
	}
}
