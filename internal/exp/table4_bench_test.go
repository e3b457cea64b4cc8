package exp

import (
	"testing"

	"repro/internal/query"
)

// BenchmarkTable4QueryModes reproduces Table 4 in miniature: QLSN/QFDL/QDOL
// throughput, latency and memory at q=16, reporting QDOL's modelled
// throughput over QFDL's.
func BenchmarkTable4QueryModes(b *testing.B) {
	cfg := Config{Scale: 0.15, Seed: 1, Workers: 2, QueryBatch: 20_000, LatencyQueries: 1_000}.Defaults()
	var rows []Table4Row
	for i := 0; i < b.N; i++ {
		rows = Table4(cfg)
	}
	var qdol, qfdl float64
	var count int
	for _, r := range rows {
		if !r.Skipped[query.QDOL] && !r.Skipped[query.QFDL] {
			qdol += r.Throughput[query.QDOL]
			qfdl += r.Throughput[query.QFDL]
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(qdol/qfdl, "QDOL/QFDL-throughput")
	}
}
