package lcc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/pll"
	"repro/internal/ptree"
	"repro/internal/verify"
)

func TestRunProducesCHL(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(50, 120, 6, seed)
		for _, workers := range []int{1, 2, 8} {
			ix, m := Run(g, Options{Workers: workers})
			if err := verify.IsCHL(g, ix); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if m.LabelsGenerated < m.Labels {
				t.Fatalf("generated %d < final %d", m.LabelsGenerated, m.Labels)
			}
			if m.LabelsCleaned != m.LabelsGenerated-m.Labels {
				t.Fatalf("cleaned accounting off: %d != %d-%d", m.LabelsCleaned, m.LabelsGenerated, m.Labels)
			}
		}
	}
}

func TestCleanRemovesInjectedRedundancy(t *testing.T) {
	// Take the CHL and inject labels that a labeling respecting R could
	// legitimately contain (true distances, hub not the path max): Clean
	// must delete exactly those.
	g := graph.RoadGrid(6, 6, 3)
	chl, _ := pll.Sequential(g, pll.Options{})
	dirty := chl.Clone()
	injected := 0
	// For every vertex, add a label for a hub h reachable but ranked
	// below the path max: its true distance via Dijkstra-free trick —
	// query the CHL itself (exact by cover property).
	n := g.NumVertices()
	for v := 0; v < n; v += 3 {
		for h := 1; h < n; h += 7 {
			if h == v {
				continue
			}
			if _, ok := dirty.Labels(v).Find(uint32(h)); ok {
				continue
			}
			d := chl.Query(v, h)
			if d == label.Infinity {
				continue
			}
			dirty.Append(v, label.Pack(uint32(h), uint32(d))) // integer weights: the unit is 1
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("test vacuous: nothing injected")
	}
	m := &metrics.Build{}
	deleted := Clean(dirty, 4, m)
	if deleted != int64(injected) {
		t.Fatalf("cleaned %d, injected %d", deleted, injected)
	}
	if diff := chl.Diff(dirty); diff != "" {
		t.Fatalf("cleaning did not restore the CHL: %s", diff)
	}
	if m.CleanQueries == 0 {
		t.Fatal("no cleaning queries recorded")
	}
}

func TestCleanKeepsCHLIntact(t *testing.T) {
	g := graph.BarabasiAlbert(80, 3, 2)
	chl, _ := pll.Sequential(g, pll.Options{})
	copyIx := chl.Clone()
	if deleted := Clean(copyIx, 4, nil); deleted != 0 {
		t.Fatalf("Clean deleted %d labels from a minimal labeling", deleted)
	}
	if diff := chl.Diff(copyIx); diff != "" {
		t.Fatal(diff)
	}
}

func TestConstructRespectsR(t *testing.T) {
	// Before cleaning, the labeling must already respect R (Claim 1) and
	// satisfy the cover property.
	g := graph.ErdosRenyi(45, 100, 5, 9)
	store := label.NewConcurrentStore(g.NumVertices())
	st := ptree.LiveForest(g, store, 4, true) // LCC-I
	ix := store.Seal(g.WeightUnitExp())
	if err := verify.Cover(g, ix, 0); err != nil {
		t.Fatal(err)
	}
	if err := verify.RespectsR(g, ix, 0); err != nil {
		t.Fatal(err)
	}
	if st.RankPruned == 0 && st.DistPruned == 0 {
		t.Fatal("no pruning recorded at all")
	}
}

func TestFigure7Breakdown(t *testing.T) {
	g := graph.RoadGrid(8, 8, 1)
	_, m := Run(g, Options{Workers: 2})
	if m.ConstructTime <= 0 || m.CleanTime <= 0 {
		t.Fatalf("phase timers empty: construct=%v clean=%v", m.ConstructTime, m.CleanTime)
	}
	if m.TotalTime < m.ConstructTime {
		t.Fatal("total < construct")
	}
}
