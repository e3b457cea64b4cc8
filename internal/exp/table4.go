package exp

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/query"
)

// Table4Row reports the three query modes on one dataset at q = 16 nodes:
// batch throughput, single-query latency, and cluster-wide label memory —
// the columns of the paper's Table 4.
type Table4Row struct {
	Dataset string
	// Per mode: throughput (million queries/second), latency (µs),
	// memory (MiB total across nodes). A nil entry means the mode is not
	// supported (the paper's "-" for QLSN on graphs whose labels exceed a
	// node's memory).
	Throughput map[query.Mode]float64
	LatencyUS  map[query.Mode]float64
	MemoryMB   map[query.Mode]float64
	Skipped    map[query.Mode]bool
}

// Table4Nodes is the cluster size of the paper's query evaluation.
const Table4Nodes = 16

// qlsnMemoryLimit mirrors Table 4's "-" entries: QLSN is unsupported when
// one node cannot hold the whole labeling. The simulated per-node budget is
// scaled to the laptop-sized datasets.
const qlsnMemoryLimit = int64(64) << 20 // 64 MiB per node

// Table4 runs the query-mode evaluation of §7.4.
func Table4(cfg Config) []Table4Row {
	cfg = cfg.Defaults()
	var rows []Table4Row
	for _, ds := range Suite(cfg.Full) {
		p := cfg.prepare(ds)
		res, err := dist.Hybrid(p.ranked, dist.Options{
			Nodes:          Table4Nodes,
			WorkersPerNode: 1,
			PsiThreshold:   ds.PsiThreshold(),
			Eta:            dist.DefaultEta,
		})
		if err != nil {
			continue
		}
		row := Table4Row{
			Dataset:    ds.Name,
			Throughput: map[query.Mode]float64{},
			LatencyUS:  map[query.Mode]float64{},
			MemoryMB:   map[query.Mode]float64{},
			Skipped:    map[query.Mode]bool{},
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 17))
		batch := make([]query.Pair, cfg.QueryBatch)
		for i := range batch {
			batch[i] = query.Pair{U: int32(rng.Intn(p.n)), V: int32(rng.Intn(p.n))}
		}
		for _, mode := range []query.Mode{query.QLSN, query.QFDL, query.QDOL} {
			eng, err := query.NewEngine(mode, res.Index, res.Owner, Table4Nodes, query.DefaultCostModel())
			if err != nil {
				row.Skipped[mode] = true
				continue
			}
			var peak int64
			var total int64
			for _, b := range eng.MemoryPerNode() {
				total += b
				if b > peak {
					peak = b
				}
			}
			if mode == query.QLSN && peak > qlsnMemoryLimit {
				row.Skipped[mode] = true // the paper's "-": labels exceed one node
				continue
			}
			br := eng.Batch(batch)
			row.Throughput[mode] = br.Throughput / 1e6
			// Latency: modeled per-query latency over a separate small
			// sample, matching the paper's one-at-a-time methodology.
			var lat time.Duration
			for i := 0; i < cfg.LatencyQueries; i++ {
				u, v := rng.Intn(p.n), rng.Intn(p.n)
				_, l := eng.Query(u, v)
				lat += l
			}
			row.LatencyUS[mode] = float64(lat.Microseconds()) / float64(cfg.LatencyQueries)
			row.MemoryMB[mode] = float64(total) / (1 << 20)
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteTable4 renders rows like the paper's Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	section(w, "Table 4: query throughput (Mq/s), latency (µs/query) and total label memory (MiB), q=16")
	t := newTable("Dataset",
		"QLSN thr", "QFDL thr", "QDOL thr",
		"QLSN lat", "QFDL lat", "QDOL lat",
		"QLSN MiB", "QFDL MiB", "QDOL MiB")
	modes := []query.Mode{query.QLSN, query.QFDL, query.QDOL}
	cell := func(r Table4Row, m map[query.Mode]float64, mode query.Mode) string {
		if r.Skipped[mode] {
			return "-"
		}
		return formatFloat(m[mode])
	}
	for _, r := range rows {
		cells := []any{r.Dataset}
		for _, m := range modes {
			cells = append(cells, cell(r, r.Throughput, m))
		}
		for _, m := range modes {
			cells = append(cells, cell(r, r.LatencyUS, m))
		}
		for _, m := range modes {
			cells = append(cells, cell(r, r.MemoryMB, m))
		}
		t.row(cells...)
	}
	t.write(w)
}
