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
// label merge-join. All three methods return identical (exact) distances —
// the tests assert it — so the comparison is purely about time per query.
type QueryBaselineRow struct {
	Dataset       string
	HubLabelNS    float64 // mean ns/query, label merge-join
	BidirectNS    float64 // bidirectional Dijkstra
	DijkstraNS    float64 // full single-source Dijkstra
	SpeedupVsBest float64 // best traversal / hub label
}

// QueryBaselines measures per-query times on one road and one scale-free
// dataset (wall-clock is meaningful here: all methods are sequential
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
		row.BidirectNS = timeIt(func(u, v int) float64 { return sssp.PointToPoint(p.ranked, u, v) })
		row.DijkstraNS = timeIt(func(u, v int) float64 { return sssp.Dijkstra(p.ranked, u)[v] })
		if row.HubLabelNS > 0 {
			row.SpeedupVsBest = min(row.BidirectNS, row.DijkstraNS) / row.HubLabelNS
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteQueryBaselines renders the comparison.
func WriteQueryBaselines(w io.Writer, rows []QueryBaselineRow) {
	section(w, "Intro claim: PPSD query cost — hub labels vs traversal algorithms (ns/query)")
	t := newTable("Dataset", "hub labels", "bidir Dijkstra", "Dijkstra", "speedup vs best traversal")
	for _, r := range rows {
		t.row(r.Dataset, r.HubLabelNS, r.BidirectNS, r.DijkstraNS, r.SpeedupVsBest)
	}
	t.write(w)
}
