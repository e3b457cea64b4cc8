package exp

import (
	"io"
	"math"

	"repro/internal/dist"
	"repro/internal/gll"
)

// The ablations quantify two design decisions:
//
//   - X2, the Common Label Table (§5.3): the communication/computation
//     trade of distributed PLaNT with the knob the paper did not have — how
//     much exploration each further batch of replicated labels prunes, and
//     what it costs in label traffic, collectives and per-node memory, from
//     no table through the paper's η = 16 to a table that grows with every
//     batch; DGLL's traffic is the yardstick.
//   - X3, GLL's two-table scheme (§4.2): how many per-vertex lock
//     acquisitions the immutable global table avoids relative to LCC's
//     single locked store.

// CommonTableRow is one distributed build in the η ablation, in the
// scoreboard's field names.
type CommonTableRow struct {
	Dataset          string
	Algorithm        string // "PLaNT" or the "DGLL" yardstick
	Eta              string // "off", "16", "64", "256", "grow"; DGLL: "-" and "16"
	VerticesExplored int64
	LabelsGenerated  int64
	BytesSent        int64
	Synchronizations int64
	MaxNodeBytes     int64
}

// AblationCommonTableNodes is the cluster size used.
const AblationCommonTableNodes = 8

// AblationCommonTableEtas are PLaNT's rows, from the smallest table to the
// largest.
var AblationCommonTableEtas = []struct {
	Name string
	Eta  int
}{{"off", -1}, {"16", 16}, {"64", 64}, {"256", 256}, {"grow", 0}}

// AblationCommonTable runs the η ablation.
func AblationCommonTable(cfg Config) []CommonTableRow {
	cfg = cfg.Defaults()
	var rows []CommonTableRow
	for _, name := range figureDatasets() {
		ds, _ := ByName(name)
		p := cfg.prepare(ds)
		add := func(algo, eta string, res *dist.Result, err error) {
			if err != nil {
				panic(err)
			}
			m := res.Metrics
			rows = append(rows, CommonTableRow{
				Dataset: name, Algorithm: algo, Eta: eta,
				VerticesExplored: m.VerticesExplored, LabelsGenerated: m.LabelsGenerated,
				BytesSent: m.BytesSent, Synchronizations: m.Synchronizations, MaxNodeBytes: m.MaxNodeBytes,
			})
		}
		for _, e := range AblationCommonTableEtas {
			res, err := dist.PLaNT(p.ranked, dist.Options{Nodes: AblationCommonTableNodes, Eta: e.Eta})
			add("PLaNT", e.Name, res, err)
		}
		res, err := dist.DGLL(p.ranked, dist.Options{Nodes: AblationCommonTableNodes})
		add("DGLL", "-", res, err)
		res, err = dist.DGLL(p.ranked, dist.Options{Nodes: AblationCommonTableNodes, Eta: dist.DefaultEta})
		add("DGLL", "16", res, err)
	}
	return rows
}

// WriteAblationCommonTable renders the rows.
func WriteAblationCommonTable(w io.Writer, rows []CommonTableRow) {
	section(w, "Ablation X2: Common Label Table — exploration saved against label traffic (q=8)")
	t := newTable("Dataset", "Algorithm", "η", "vertices_explored", "labels_generated", "bytes_sent", "synchronizations", "max_node_bytes")
	for _, r := range rows {
		t.row(r.Dataset, r.Algorithm, r.Eta, r.VerticesExplored, r.LabelsGenerated, r.BytesSent, r.Synchronizations, r.MaxNodeBytes)
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

// AblationTwoTables runs the lock-count ablation. Both tables are
// label.ConcurrentStore, where a read of an empty set takes no lock, so
// what is counted is every append and every read of a non-empty set: LCC's
// one table fills up as it runs, GLL's local table is emptied every
// superstep.
func AblationTwoTables(cfg Config) []TwoTableRow {
	cfg = cfg.Defaults()
	var rows []TwoTableRow
	for _, ds := range Suite(false) {
		p := cfg.prepare(ds)
		_, lm := gll.Run(p.ranked, gll.Options{Workers: cfg.Workers, Alpha: math.Inf(1), Profile: true}) // LCC
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
