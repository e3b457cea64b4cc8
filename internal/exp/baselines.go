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
	HubLabelNS   float64 // ns/query of the fastest pass, label merge-join
	DijkstraToNS float64 // ns/query of the fastest pass, Dijkstra to the target
	Speedup      float64 // DijkstraToNS / HubLabelNS
}

// QueryBaselines measures per-query times on one road and one scale-free
// dataset (wall-clock is meaningful here: both methods are sequential
// single-query computations on the same box). Each column is timed by
// nsPerQuery over the same pairs.
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

		row := QueryBaselineRow{Dataset: name}
		row.HubLabelNS = nsPerQuery(us, vs, func(u, v int) float64 { return ix.Query(u, v) })
		row.DijkstraToNS = nsPerQuery(us, vs, func(u, v int) float64 { return sssp.DijkstraTo(p.ranked, u, v) })
		if row.HubLabelNS > 0 {
			row.Speedup = row.DijkstraToNS / row.HubLabelNS
		}
		rows = append(rows, row)
	}
	return rows
}

// minPassTime is how long each column repeats its passes over the pairs
// for, and minPasses how many it makes at least. A hub-label pass takes
// tens of microseconds: one pass alone times the caches and the host's
// moment as much as the join.
const (
	minPassTime = 200 * time.Millisecond
	minPasses   = 5
)

// nsPerQuery returns fn's time per query over the pairs (us[i], vs[i]):
// after one untimed warm-up pass, passes repeat until they add up to
// minPassTime and number minPasses, and the fastest is reported. Each pass
// does the same work, so a slower one only measured a collection or the
// scheduler.
func nsPerQuery(us, vs []int, fn func(u, v int) float64) float64 {
	var sink float64
	pass := func() time.Duration {
		start := time.Now()
		for i := range us {
			sink += fn(us[i], vs[i])
		}
		return time.Since(start)
	}
	pass()
	var best, total time.Duration
	for n := 0; total < minPassTime || n < minPasses; n++ {
		d := pass()
		if n == 0 || d < best {
			best = d
		}
		total += d
	}
	_ = sink
	return float64(best.Nanoseconds()) / float64(len(us))
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
