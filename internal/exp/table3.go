package exp

import (
	"io"
	"math"
	"time"

	"repro/internal/gll"
	"repro/internal/pll"
)

// Table3Row is one dataset row of Table 3: shared-memory algorithms
// compared on preprocessing time and average label size.
type Table3Row struct {
	Dataset    string
	N, M       int
	SparaALS   float64 // SparaPLL average label size
	SparaTime  time.Duration
	CHLALS     float64 // canonical ALS (identical for seqPLL/LCC/GLL)
	SeqTime    time.Duration
	SeqSkipped bool // mirrors the paper's "∞" entries
	LCCTime    time.Duration
	GLLTime    time.Duration
}

// seqPLLVertexLimit mirrors the paper's 2-hour timeout: beyond this size
// the sequential baseline is skipped (Table 3 reports ∞ for USA, ACT, POK).
const seqPLLVertexLimit = 60_000

// Table3 runs the shared-memory comparison of §7.2 on the dataset suite.
func Table3(cfg Config) []Table3Row {
	cfg = cfg.Defaults()
	var rows []Table3Row
	for _, ds := range Suite(cfg.Full) {
		p := cfg.prepare(ds)
		row := Table3Row{Dataset: ds.Name, N: p.n, M: p.g.NumEdges()}

		spIx, spM := pll.SParaPLL(p.ranked, pll.Options{Workers: cfg.Workers})
		row.SparaALS = float64(spIx.TotalLabels()) / float64(p.n)
		row.SparaTime = spM.TotalTime

		if p.n <= seqPLLVertexLimit {
			seqIx, seqM := pll.Sequential(p.ranked, pll.Options{})
			row.SeqTime = seqM.TotalTime
			row.CHLALS = float64(seqIx.TotalLabels()) / float64(p.n)
		} else {
			row.SeqSkipped = true
		}

		lccIx, lccM := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers, Alpha: math.Inf(1)}) // LCC
		row.LCCTime = lccM.TotalTime

		gllIx, gllM := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers})
		row.GLLTime = gllM.TotalTime
		row.CHLALS = float64(gllIx.TotalLabels()) / float64(p.n)
		if lccIx.TotalLabels() != gllIx.TotalLabels() {
			// The CHL is unique: any discrepancy is a bug, surface loudly.
			panic("exp: LCC and GLL disagree on label count")
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteTable3 renders the rows like the paper's Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	section(w, "Table 3: shared-memory labeling — ALS and construction time")
	t := newTable("Dataset", "n", "m", "SparaPLL ALS", "SparaPLL(s)", "CHL ALS", "seqPLL(s)", "LCC(s)", "GLL(s)")
	for _, r := range rows {
		seq := "inf"
		if !r.SeqSkipped {
			seq = formatFloat(r.SeqTime.Seconds())
		}
		t.row(r.Dataset, r.N, r.M, r.SparaALS, r.SparaTime.Seconds(), r.CHLALS, seq,
			r.LCCTime.Seconds(), r.GLLTime.Seconds())
	}
	t.write(w)
}
