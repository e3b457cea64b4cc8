package gll

import (
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/pll"
	"repro/internal/verify"
)

func TestRunProducesCHL(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.ErdosRenyi(55, 130, 6, seed)
		want, _ := pll.Sequential(g, pll.Options{})
		for _, workers := range []int{1, 2, 8} {
			for _, alpha := range []float64{0.5, 2, 4, 32} {
				ix, _ := Run(g, Options{Workers: workers, Alpha: alpha})
				if diff := want.Diff(ix); diff != "" {
					t.Fatalf("seed %d workers %d α=%v: %s", seed, workers, alpha, diff)
				}
			}
		}
	}
}

// TestLCCProducesCHL: at α = +Inf, Run is LCC — one superstep whose one
// cleaning pass deletes exactly the labels the racy construction generated
// beyond the CHL.
func TestLCCProducesCHL(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.ErdosRenyi(50, 120, 6, seed)
		for _, workers := range []int{1, 2, 8} {
			ix, m := Run(g, Options{Workers: workers, Alpha: math.Inf(1)})
			if err := verify.IsCHL(g, ix); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if m.Algorithm != "LCC" || m.Synchronizations != 1 {
				t.Fatalf("seed %d workers %d: %s in %d supersteps, want LCC in 1", seed, workers, m.Algorithm, m.Synchronizations)
			}
			if m.LabelsCleaned != m.LabelsGenerated-m.Labels {
				t.Fatalf("cleaned accounting off: %d != %d-%d", m.LabelsCleaned, m.LabelsGenerated, m.Labels)
			}
		}
	}
}

// TestUnboundedBudgetIsOneSuperstep: an α·n at or past 2^63 saturates the
// label budget instead of overflowing the conversion, so the first
// superstep takes every root.
func TestUnboundedBudgetIsOneSuperstep(t *testing.T) {
	g := graph.RoadGrid(8, 8, 1)
	for _, alpha := range []float64{math.Inf(1), 1e30} {
		st := NewState(g, Options{Workers: 2, Alpha: alpha})
		st.Superstep(&metrics.Build{})
		if !st.Done() || st.Steps() != 1 {
			t.Fatalf("α=%v: done=%v after %d supersteps, want every root in 1", alpha, st.Done(), st.Steps())
		}
	}
}

// TestLCCPhaseTimers: both phases of Figure 7's LCC breakdown are timed.
func TestLCCPhaseTimers(t *testing.T) {
	g := graph.RoadGrid(8, 8, 1)
	_, m := Run(g, Options{Workers: 2, Alpha: math.Inf(1)})
	if m.ConstructTime <= 0 || m.CleanTime <= 0 {
		t.Fatalf("phase timers empty: construct=%v clean=%v", m.ConstructTime, m.CleanTime)
	}
	if m.TotalTime < m.ConstructTime+m.CleanTime {
		t.Fatalf("total %v < construct %v + clean %v", m.TotalTime, m.ConstructTime, m.CleanTime)
	}
}

func TestSuperstepsScaleWithAlpha(t *testing.T) {
	g := graph.RoadGrid(10, 10, 1)
	m1 := &metrics.Build{}
	st1 := NewState(g, Options{Workers: 2, Alpha: 0.5})
	for !st1.Done() {
		st1.Superstep(m1)
	}
	m2 := &metrics.Build{}
	st2 := NewState(g, Options{Workers: 2, Alpha: 64})
	for !st2.Done() {
		st2.Superstep(m2)
	}
	if st1.Steps() <= st2.Steps() {
		t.Fatalf("α=0.5 took %d supersteps, α=64 took %d — smaller α must sync more",
			st1.Steps(), st2.Steps())
	}
	if m1.Synchronizations != int64(st1.Steps()) {
		t.Fatalf("synchronization counter %d != steps %d", m1.Synchronizations, st1.Steps())
	}
	// Both end at the same CHL.
	if diff := st1.Index().Diff(st2.Index()); diff != "" {
		t.Fatal(diff)
	}
}

// TestGlobalTableGrowsMonotonically drives supersteps one at a time: the
// global table stays sorted and every superstep only appends to it — each
// vertex's set before the superstep is an unchanged prefix of its set after.
func TestGlobalTableGrowsMonotonically(t *testing.T) {
	for _, c := range []struct {
		name       string
		g          *graph.Graph
		plantFirst bool
	}{
		{"ba", graph.BarabasiAlbert(120, 3, 3), false},
		{"ba plant-first", graph.BarabasiAlbert(120, 3, 3), true},
		{"grid", graph.RoadGrid(12, 12, 4), false},
		{"grid plant-first", graph.RoadGrid(12, 12, 4), true},
	} {
		g := c.g
		n := g.NumVertices()
		st := NewState(g, Options{Workers: 2, Alpha: 1})
		m := &metrics.Build{}
		prev := make([]label.Set, n)
		for first := true; !st.Done(); first = false {
			if first && c.plantFirst {
				st.plantFirstSuperstep(m)
			} else {
				st.Superstep(m)
			}
			for v := 0; v < n; v++ {
				s := st.GlobalLabels(v)
				if !s.IsSorted() {
					t.Fatalf("%s: global table of %d unsorted after superstep %d", c.name, v, st.Steps())
				}
				if len(s) < len(prev[v]) || !slices.Equal(s[:len(prev[v])], prev[v]) {
					t.Fatalf("%s: superstep %d rewrote the global set of %d: %v, before %v",
						c.name, st.Steps(), v, s, prev[v])
				}
				prev[v] = s.Clone()
			}
		}
		if err := verify.IsCHL(g, st.Index()); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestRoadGridMatchesSequential covers integer-weighted grids, where equal
// distances are common and a tie broken differently would show: GLL and
// GLL with a PLaNTed first superstep must both build pll.Sequential's CHL.
func TestRoadGridMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		g := graph.RoadGrid(11, 13, seed)
		want, _ := pll.Sequential(g, pll.Options{})
		for _, workers := range []int{1, 2, 8} {
			for _, alpha := range []float64{0.5, 4} {
				opts := Options{Workers: workers, Alpha: alpha}
				if ix, _ := Run(g, opts); want.Diff(ix) != "" {
					t.Fatalf("Run seed %d workers %d α=%v: %s", seed, workers, alpha, want.Diff(ix))
				}
				if ix, _ := RunPlantFirst(g, opts); want.Diff(ix) != "" {
					t.Fatalf("RunPlantFirst seed %d workers %d α=%v: %s", seed, workers, alpha, want.Diff(ix))
				}
			}
		}
	}
}

func TestCleaningCheaperThanLCCWouldBe(t *testing.T) {
	// GLL's whole point (§4.2): cleaning queries only run against local
	// labels, so their count is bounded by labels *generated*, not by
	// (labels × supersteps).
	g := graph.BarabasiAlbert(150, 4, 5)
	_, m := Run(g, Options{Workers: 2, Alpha: 4})
	if m.CleanQueries > m.LabelsGenerated {
		t.Fatalf("clean queries %d exceed generated labels %d", m.CleanQueries, m.LabelsGenerated)
	}
	if m.CleanQueries == 0 {
		t.Fatal("no cleaning queries at all")
	}
}

func TestProfilingCountsLocks(t *testing.T) {
	g := graph.RoadGrid(6, 6, 1)
	st := NewState(g, Options{Workers: 2, Alpha: 4, Profile: true})
	m := &metrics.Build{}
	for !st.Done() {
		st.Superstep(m)
	}
	if st.LockCount() == 0 {
		t.Fatal("profiling recorded no local-table locks")
	}
}

func TestDegenerateBudget(t *testing.T) {
	// α so small the budget is < 1 label per superstep must still
	// terminate (budget clamps to 1).
	g := graph.Path(12, 1)
	ix, m := Run(g, Options{Workers: 1, Alpha: 1e-9})
	want, _ := pll.Sequential(g, pll.Options{})
	if diff := want.Diff(ix); diff != "" {
		t.Fatal(diff)
	}
	if m.Synchronizations < 2 {
		t.Fatalf("expected many supersteps, got %d", m.Synchronizations)
	}
}
