package exp

import (
	"io"

	"repro/internal/dist"
	"repro/internal/gll"
	"repro/internal/lcc"
)

// The ablations quantify two design decisions:
//
//   - X2, the Common Label Table (§5.3): how much PLaNT exploration it
//     prunes and how much DGLL redundancy it prevents, for its O(η·n)
//     broadcast cost.
//   - X3, GLL's two-table scheme (§4.2): how many per-vertex lock
//     acquisitions the immutable global table avoids relative to LCC's
//     single locked store.

// CommonTableRow compares a distributed algorithm with and without the
// Common Label Table on one dataset.
type CommonTableRow struct {
	Dataset   string
	Algorithm string
	// Without (η disabled) vs With (η = 16).
	ExploredWithout, ExploredWith   int64
	GeneratedWithout, GeneratedWith int64
	BytesWithout, BytesWith         int64
}

// AblationCommonTableNodes is the cluster size used.
const AblationCommonTableNodes = 8

// AblationCommonTable runs the η ablation.
func AblationCommonTable(cfg Config) []CommonTableRow {
	cfg = cfg.Defaults()
	var rows []CommonTableRow
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		q := AblationCommonTableNodes

		pWithout, err := dist.PLaNT(p.ranked, dist.Options{Nodes: q, Eta: -1})
		if err != nil {
			panic(err)
		}
		pWith, err := dist.PLaNT(p.ranked, dist.Options{Nodes: q, Eta: dist.DefaultEta})
		if err != nil {
			panic(err)
		}
		rows = append(rows, CommonTableRow{
			Dataset: name, Algorithm: "PLaNT",
			ExploredWithout:  pWithout.Metrics.VerticesExplored,
			ExploredWith:     pWith.Metrics.VerticesExplored,
			GeneratedWithout: pWithout.Metrics.LabelsGenerated,
			GeneratedWith:    pWith.Metrics.LabelsGenerated,
			BytesWithout:     pWithout.Metrics.BytesSent,
			BytesWith:        pWith.Metrics.BytesSent,
		})

		dWithout, err := dist.DGLL(p.ranked, dist.Options{Nodes: q})
		if err != nil {
			panic(err)
		}
		dWith, err := dist.DGLL(p.ranked, dist.Options{Nodes: q, Eta: dist.DefaultEta})
		if err != nil {
			panic(err)
		}
		rows = append(rows, CommonTableRow{
			Dataset: name, Algorithm: "DGLL",
			ExploredWithout:  dWithout.Metrics.VerticesExplored,
			ExploredWith:     dWith.Metrics.VerticesExplored,
			GeneratedWithout: dWithout.Metrics.LabelsGenerated,
			GeneratedWith:    dWith.Metrics.LabelsGenerated,
			BytesWithout:     dWithout.Metrics.BytesSent,
			BytesWith:        dWith.Metrics.BytesSent,
		})
	}
	return rows
}

// WriteAblationCommonTable renders the rows.
func WriteAblationCommonTable(w io.Writer, rows []CommonTableRow) {
	section(w, "Ablation X2: Common Label Table (η=16) — exploration, generated labels and traffic")
	t := newTable("Dataset", "Algorithm", "explored η=0", "explored η=16", "generated η=0", "generated η=16", "bytes η=0", "bytes η=16")
	for _, r := range rows {
		t.row(r.Dataset, r.Algorithm, r.ExploredWithout, r.ExploredWith,
			r.GeneratedWithout, r.GeneratedWith, r.BytesWithout, r.BytesWith)
	}
	t.write(w)
}

// PlantFirstRow compares plain GLL against GLL with a PLaNTed first
// superstep (§5.4): the first superstep's cleaning disappears because
// PLaNT emits only canonical labels.
type PlantFirstRow struct {
	Dataset        string
	PlainCleanQs   int64
	PlantCleanQs   int64
	PlainGenerated int64
	PlantGenerated int64
}

// AblationPlantFirst runs the PLaNT-first GLL ablation.
func AblationPlantFirst(cfg Config) []PlantFirstRow {
	cfg = cfg.Defaults()
	var rows []PlantFirstRow
	for _, ds := range Suite(false) {
		p := cfg.prepare(ds)
		_, plain := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers})
		_, pf := gll.RunPlantFirst(p.ranked, gll.Options{Workers: cfg.Workers})
		rows = append(rows, PlantFirstRow{
			Dataset:        ds.Name,
			PlainCleanQs:   plain.CleanQueries,
			PlantCleanQs:   pf.CleanQueries,
			PlainGenerated: plain.LabelsGenerated,
			PlantGenerated: pf.LabelsGenerated,
		})
	}
	return rows
}

// WriteAblationPlantFirst renders the rows.
func WriteAblationPlantFirst(w io.Writer, rows []PlantFirstRow) {
	section(w, "Ablation X4: GLL vs GLL with PLaNTed first superstep (§5.4)")
	t := newTable("Dataset", "clean queries", "clean queries (PLaNT-first)", "generated", "generated (PLaNT-first)")
	for _, r := range rows {
		t.row(r.Dataset, r.PlainCleanQs, r.PlantCleanQs, r.PlainGenerated, r.PlantGenerated)
	}
	t.write(w)
}

// TwoTableRow compares per-vertex label-store lock acquisitions between
// LCC's single concurrent table and GLL's global/local split.
type TwoTableRow struct {
	Dataset  string
	LCCLocks int64
	GLLLocks int64
}

// AblationTwoTables runs the lock-count ablation.
func AblationTwoTables(cfg Config) []TwoTableRow {
	cfg = cfg.Defaults()
	var rows []TwoTableRow
	for _, ds := range Suite(false) {
		p := cfg.prepare(ds)
		_, lm := lcc.Run(p.ranked, lcc.Options{Workers: cfg.Workers, Profile: true})
		_, gm := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers, Profile: true})
		rows = append(rows, TwoTableRow{Dataset: ds.Name, LCCLocks: lm.LockAcquisitions, GLLLocks: gm.LockAcquisitions})
	}
	return rows
}

// WriteAblationTwoTables renders the rows.
func WriteAblationTwoTables(w io.Writer, rows []TwoTableRow) {
	section(w, "Ablation X3: per-vertex label-store lock acquisitions — LCC vs GLL (two tables)")
	t := newTable("Dataset", "LCC locks", "GLL locks", "reduction")
	for _, r := range rows {
		red := "-"
		if r.LCCLocks > 0 {
			red = formatFloat(1 - float64(r.GLLLocks)/float64(r.LCCLocks))
		}
		t.row(r.Dataset, r.LCCLocks, r.GLLLocks, red)
	}
	t.write(w)
}
