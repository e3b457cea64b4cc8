package exp

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/gll"
	"repro/internal/sssp"
)

// QueryBaselineRow quantifies the paper's motivating claim (§1): traversal
// algorithms answer PPSD queries orders of magnitude slower than a hub
// label merge-join. The traversal is sssp.DijkstraTo, a Dijkstra that
// stops at its target, on the same pairs; both return the same exact
// distance (internal/sssp's and the builders' tests hold each to the
// Dijkstra row), so the comparison is purely about time per query.
type QueryBaselineRow struct {
	Dataset      string
	HubLabelNS   float64 // mean ns/query, label merge-join
	DijkstraToNS float64 // mean ns/query, Dijkstra to the target
	Speedup      float64 // DijkstraToNS / HubLabelNS
}

// QueryBaselines measures per-query times on one road and one scale-free
// dataset (wall-clock is meaningful here: both methods are sequential
// single-query computations on the same box).
func QueryBaselines(cfg Config) []QueryBaselineRow {
	cfg = cfg.Defaults()
	var rows []QueryBaselineRow
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		ix, _ := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers})
		rng := rand.New(rand.NewSource(cfg.Seed + 5))
		const queries = 64
		us := make([]int, queries)
		vs := make([]int, queries)
		for i := range us {
			us[i], vs[i] = rng.Intn(p.n), rng.Intn(p.n)
		}

		timeIt := func(fn func(u, v int) float64) float64 {
			start := time.Now()
			var sink float64
			for i := range us {
				sink += fn(us[i], vs[i])
			}
			_ = sink
			return float64(time.Since(start).Nanoseconds()) / queries
		}

		row := QueryBaselineRow{Dataset: name}
		row.HubLabelNS = timeIt(func(u, v int) float64 { return ix.Query(u, v) })
		row.DijkstraToNS = timeIt(func(u, v int) float64 { return sssp.DijkstraTo(p.ranked, u, v) })
		if row.HubLabelNS > 0 {
			row.Speedup = row.DijkstraToNS / row.HubLabelNS
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteQueryBaselines renders the comparison.
func WriteQueryBaselines(w io.Writer, rows []QueryBaselineRow) {
	section(w, "Intro claim: PPSD query cost — hub labels vs traversal algorithms (ns/query)")
	t := newTable("Dataset", "hub labels", "Dijkstra to target", "speedup")
	for _, r := range rows {
		t.row(r.Dataset, r.HubLabelNS, r.DijkstraToNS, r.Speedup)
	}
	t.write(w)
}
