package exp

import (
	"io"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/gll"
	"repro/internal/plant"
	"repro/internal/pll"
)

// ---------------------------------------------------------------------------
// Figure 2: labels generated per SPT, by SPT id (= n − R(v); in rank space
// the SPT id is simply the root id). The paper plots CAL and SKIT and the
// point is the exponential decay: early high-ranked trees generate almost
// all labels.

// SeriesPoint is one log-bucket of a per-tree series.
type SeriesPoint struct {
	TreeLo, TreeHi int
	Value          float64
}

// FigureSeries is a named per-dataset series.
type FigureSeries struct {
	Dataset string
	Points  []SeriesPoint
}

// figure2Datasets mirrors the paper's choice of one road and one
// scale-free network.
func figureDatasets() []string { return []string{"CAL", "SKIT"} }

// Figure2 computes labels-per-SPT series.
func Figure2(cfg Config) []FigureSeries {
	cfg = cfg.Defaults()
	var out []FigureSeries
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		_, m := pll.Sequential(p.ranked, pll.Options{RecordPerTree: true})
		var pts []SeriesPoint
		for _, b := range bucketSeries(m.LabelsPerTree, 0, "avg") {
			pts = append(pts, SeriesPoint{b.Lo, b.Hi, b.Value})
		}
		out = append(out, FigureSeries{Dataset: name, Points: pts})
	}
	return out
}

// WriteFigure2 renders the series.
func WriteFigure2(w io.Writer, series []FigureSeries) {
	section(w, "Figure 2: labels generated per SPT (avg per log-spaced tree bucket)")
	for _, s := range series {
		t := newTable("SPT id range ("+s.Dataset+")", "avg labels/SPT")
		for _, p := range s.Points {
			t.row(rangeStr(p.TreeLo, p.TreeHi), p.Value)
		}
		t.write(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 3: Ψ (vertices explored per label generated) per PLaNTed SPT.

// Figure3 computes the Ψ-per-tree series for unpruned PLaNT.
func Figure3(cfg Config) []FigureSeries {
	cfg = cfg.Defaults()
	var out []FigureSeries
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		// Eta < 0: the figure is about what PLaNT explores when
		// nothing prunes it, which is what motivates §5.3.
		_, m := plant.Run(p.ranked, plant.Options{Workers: cfg.Workers, RecordPerTree: true, Eta: -1})
		psi := make([]int64, p.n)
		for h := 0; h < p.n; h++ {
			l := m.LabelsPerTree[h]
			if l == 0 {
				l = 1
			}
			psi[h] = m.ExploredPerTree[h] / l
		}
		var pts []SeriesPoint
		for _, b := range bucketSeries(psi, 0, "max") {
			pts = append(pts, SeriesPoint{b.Lo, b.Hi, b.Value})
		}
		out = append(out, FigureSeries{Dataset: name, Points: pts})
	}
	return out
}

// WriteFigure3 renders the series.
func WriteFigure3(w io.Writer, series []FigureSeries) {
	section(w, "Figure 3: Ψ = vertices explored per label, per PLaNTed SPT (max per bucket)")
	for _, s := range series {
		t := newTable("SPT id range ("+s.Dataset+")", "max Ψ")
		for _, p := range s.Points {
			t.row(rangeStr(p.TreeLo, p.TreeHi), p.Value)
		}
		t.write(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 4: labels generated when pruning distance queries may only use the
// x highest-ranked hubs (x = 0 ⇒ rank queries only).

// Figure4Point is one (x, labels) sample.
type Figure4Point struct {
	TopHubs int
	Labels  int64
}

// Figure4Series is the per-dataset curve.
type Figure4Series struct {
	Dataset string
	Points  []Figure4Point
	CHL     int64 // unrestricted label count
}

// Figure4 sweeps the pruning bound.
func Figure4(cfg Config) []Figure4Series {
	cfg = cfg.Defaults()
	var out []Figure4Series
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		s := Figure4Series{Dataset: name}
		for _, x := range []int{0, 1, 2, 4, 8, 16, 32, 64} {
			opts := pll.Options{PruneHubBound: uint32(x)}
			if x == 0 {
				opts = pll.Options{DisableDistanceQueries: true}
			}
			ix, _ := pll.Sequential(p.ranked, opts)
			s.Points = append(s.Points, Figure4Point{TopHubs: x, Labels: ix.TotalLabels()})
		}
		full, _ := pll.Sequential(p.ranked, pll.Options{})
		s.CHL = full.TotalLabels()
		out = append(out, s)
	}
	return out
}

// WriteFigure4 renders the curves.
func WriteFigure4(w io.Writer, series []Figure4Series) {
	section(w, "Figure 4: #labels when pruning uses only the x top-ranked hubs (x=0: rank queries only)")
	for _, s := range series {
		t := newTable("x ("+s.Dataset+")", "#labels")
		for _, p := range s.Points {
			t.row(p.TopHubs, p.Labels)
		}
		t.row("all (CHL)", s.CHL)
		t.write(w)
	}
}

// ---------------------------------------------------------------------------
// Figure 5: GLL execution time vs synchronization threshold α.

// Figure5Point is one (α, time) sample for one dataset.
type Figure5Point struct {
	Dataset string
	Alpha   float64
	Time    time.Duration
}

// Figure5Alphas is the sweep grid (the paper sweeps 1..256 and finds the
// time robust for α in [2,32]).
var Figure5Alphas = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Figure5 sweeps α for every (non-large) dataset.
func Figure5(cfg Config) []Figure5Point {
	cfg = cfg.Defaults()
	var out []Figure5Point
	for _, ds := range Suite(false) {
		p := cfg.prepare(ds)
		for _, a := range Figure5Alphas {
			_, m := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers, Alpha: a})
			out = append(out, Figure5Point{Dataset: ds.Name, Alpha: a, Time: m.TotalTime})
		}
	}
	return out
}

// WriteFigure5 renders the sweep.
func WriteFigure5(w io.Writer, pts []Figure5Point) {
	section(w, "Figure 5: GLL execution time (s) vs synchronization threshold α")
	t := newTable("Dataset", "α", "time(s)")
	for _, p := range pts {
		t.row(p.Dataset, p.Alpha, p.Time.Seconds())
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 6: Hybrid execution time vs switching threshold Ψth (16 nodes).

// Figure6Point is one (Ψth, modeled time) sample.
type Figure6Point struct {
	Dataset string
	PsiTh   float64
	Modeled float64 // modeled cluster seconds (metrics.CostModel)
	Bytes   int64
}

// Figure6PsiThresholds is the sweep grid.
var Figure6PsiThresholds = []float64{16, 64, 128, 512, 2048, 8192}

// Figure6Nodes matches the paper's 16-node sweep.
const Figure6Nodes = 16

// Figure6 sweeps Ψth on one road and one scale-free dataset.
func Figure6(cfg Config) []Figure6Point {
	cfg = cfg.Defaults()
	cm := defaultClusterCost()
	var out []Figure6Point
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		for _, psi := range Figure6PsiThresholds {
			// η = 16: the figure measures the paper's Hybrid, whose table
			// does not grow (with one that does, Ψ rarely trips at all).
			res, err := dist.Hybrid(p.ranked, dist.Options{Nodes: Figure6Nodes, PsiThreshold: psi, Eta: dist.DefaultEta})
			if err != nil {
				continue
			}
			out = append(out, Figure6Point{
				Dataset: name,
				PsiTh:   psi,
				Modeled: modeledSeconds(cm, res),
				Bytes:   res.Metrics.BytesSent,
			})
		}
	}
	return out
}

// WriteFigure6 renders the sweep.
func WriteFigure6(w io.Writer, pts []Figure6Point) {
	section(w, "Figure 6: Hybrid modeled time vs switching threshold Ψth (q=16)")
	t := newTable("Dataset", "Ψth", "modeled(s)", "bytes")
	for _, p := range pts {
		t.row(p.Dataset, p.PsiTh, p.Modeled, p.Bytes)
	}
	t.write(w)
}

// ---------------------------------------------------------------------------
// Figure 7: construction vs cleaning time breakdown, LCC against GLL,
// normalized by GLL's total time.

// Figure7Row is one dataset's breakdown.
type Figure7Row struct {
	Dataset                string
	GLLConstruct, GLLClean float64 // fractions of GLL total
	LCCConstruct, LCCClean float64 // normalized by GLL total
	GLLTotal, LCCTotal     time.Duration
	// CleanEntries meter the cleaning work machine-independently: label
	// entries touched by DQ_Clean merge-joins (§4.2's whole argument is
	// that GLL touches far fewer).
	GLLCleanEntries, LCCCleanEntries int64
}

// Figure7 measures the breakdown.
func Figure7(cfg Config) []Figure7Row {
	cfg = cfg.Defaults()
	var rows []Figure7Row
	for _, ds := range Suite(false) {
		p := cfg.prepare(ds)
		_, gm := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers})
		_, lm := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers, Alpha: math.Inf(1)}) // LCC
		gt := gm.TotalTime.Seconds()
		rows = append(rows, Figure7Row{
			Dataset:         ds.Name,
			GLLConstruct:    gm.ConstructTime.Seconds() / gt,
			GLLClean:        gm.CleanTime.Seconds() / gt,
			LCCConstruct:    lm.ConstructTime.Seconds() / gt,
			LCCClean:        lm.CleanTime.Seconds() / gt,
			GLLTotal:        gm.TotalTime,
			LCCTotal:        lm.TotalTime,
			GLLCleanEntries: gm.CleanEntries,
			LCCCleanEntries: lm.CleanEntries,
		})
	}
	return rows
}

// WriteFigure7 renders the breakdown.
func WriteFigure7(w io.Writer, rows []Figure7Row) {
	section(w, "Figure 7: construction/cleaning breakdown (normalized by GLL total time)")
	t := newTable("Dataset", "GLL constr", "GLL clean", "LCC constr", "LCC clean", "GLL clean entries", "LCC clean entries")
	for _, r := range rows {
		t.row(r.Dataset, r.GLLConstruct, r.GLLClean, r.LCCConstruct, r.LCCClean, r.GLLCleanEntries, r.LCCCleanEntries)
	}
	t.write(w)
}

func rangeStr(lo, hi int) string {
	if hi-lo <= 1 {
		return formatFloat(float64(lo))
	}
	return formatFloat(float64(lo)) + "-" + formatFloat(float64(hi-1))
}
