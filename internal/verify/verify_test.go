package verify_test

// Negative tests: each first-principles check must actually catch the
// violation it is specified to catch. A verifier that accepts everything
// would silently validate broken algorithms.

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/pll"
	"repro/internal/verify"
)

func fixture(t *testing.T) (*graph.Graph, *label.Index) {
	t.Helper()
	g := graph.ErdosRenyi(40, 90, 6, 7)
	ix, _ := pll.Sequential(g, pll.Options{})
	if err := verify.IsCHL(g, ix); err != nil {
		t.Fatalf("fixture is not a CHL: %v", err)
	}
	return g, ix
}

func TestCoverDetectsMissingLabel(t *testing.T) {
	g, ix := fixture(t)
	bad := ix.Clone()
	// Remove a non-self label: some pair previously covered through it
	// must now answer a larger distance (or the canonical witness is gone
	// and RespectsR fails; cover fails whenever the removed label was the
	// unique witness for some pair — take the highest-ranked non-self
	// label of the lowest-ranked vertex, which covers (v, hub)).
	v := g.NumVertices() - 1
	s := bad.Labels(v).Clone()
	if len(s) < 2 {
		t.Skip("degenerate fixture")
	}
	removed := s[0]
	bad.SetLabels(v, s[1:])
	if err := verify.Cover(g, bad, 0); err == nil {
		// The pair (v, hub of removed) may still be covered via another
		// common hub only if removed was redundant — impossible in a CHL.
		t.Fatalf("cover check missed the removal of label (hub %d) at vertex %d", label.Hub(removed), v)
	}
}

func TestCoverDetectsWrongDistance(t *testing.T) {
	g, ix := fixture(t)
	bad := ix.Clone()
	for v := 0; v < g.NumVertices(); v++ {
		s := bad.Labels(v).Clone()
		for i := range s {
			if h := label.Hub(s[i]); int(h) != v {
				s[i] = label.Pack(h, label.Dist(s[i])+1) // inflate one label
				bad.SetLabels(v, s)
				if err := verify.Cover(g, bad, 0); err == nil {
					t.Fatalf("cover check accepted an inflated distance at vertex %d hub %d", v, h)
				}
				return
			}
		}
	}
	t.Skip("no non-self label found")
}

func TestRespectsRDetectsMissingCanonicalHub(t *testing.T) {
	g, ix := fixture(t)
	bad := ix.Clone()
	// Drop the top-ranked hub from some vertex's labels: if that hub was
	// the max on any shortest path to the vertex, respects-R must fail.
	for v := g.NumVertices() - 1; v > 0; v-- {
		s := bad.Labels(v)
		if len(s) >= 2 && label.Hub(s[0]) != uint32(v) {
			bad.SetLabels(v, s[1:].Clone())
			if err := verify.RespectsR(g, bad, 0); err == nil {
				t.Fatalf("respects-R missed the dropped hub %d at vertex %d", label.Hub(s[0]), v)
			}
			return
		}
	}
	t.Skip("no suitable label found")
}

func TestMinimalDetectsRedundantLabel(t *testing.T) {
	g, ix := fixture(t)
	bad := ix.Clone()
	// Add a redundant label with its true distance: any (v,h) pair not in
	// the CHL is by definition redundant.
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for h := 0; h < n; h++ {
			if h == v {
				continue
			}
			if _, ok := bad.Labels(v).Find(uint32(h)); ok {
				continue
			}
			d := ix.Query(v, h)
			if d == label.Infinity {
				continue
			}
			bad.Append(v, label.Pack(uint32(h), uint32(d))) // integer weights: the unit is 1
			if err := verify.Minimal(bad); err == nil {
				t.Fatalf("minimality check accepted redundant label (v=%d h=%d)", v, h)
			}
			return
		}
	}
	t.Skip("graph too small to inject redundancy")
}

func TestCanonicalDistancesDetectsCorruption(t *testing.T) {
	g, ix := fixture(t)
	bad := ix.Clone()
	s := bad.Labels(3).Clone()
	if len(s) == 0 {
		t.Skip("no labels")
	}
	last := s[len(s)-1]
	s[len(s)-1] = label.Pack(label.Hub(last), label.Dist(last)+1)
	bad.SetLabels(3, s)
	if err := verify.CanonicalDistances(g, bad, 0); err == nil {
		t.Fatal("distance corruption not detected")
	}
}

func TestIsCHLAcceptsTheRealThing(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := graph.SmallWorld(30, 2, 0.3, seed)
		ix, _ := pll.Sequential(g, pll.Options{})
		if err := verify.IsCHL(g, ix); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestCoverSampledMatchesCover(t *testing.T) {
	g, ix := fixture(t)
	if err := verify.CoverSampled(g, ix, 10, 3); err != nil {
		t.Fatal(err)
	}
	// And on an empty graph both are vacuous.
	empty := graph.Path(0, 1)
	eix := label.NewIndex(0, 0)
	if err := verify.Cover(empty, eix, 0); err != nil {
		t.Fatal(err)
	}
	if err := verify.CoverSampled(empty, eix, 5, 1); err != nil {
		t.Fatal(err)
	}
}
