package exp

import (
	"errors"
	"io"

	"repro/internal/dist"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/pll"
)

// This file drives the distributed evaluation: Figure 8 (strong scaling of
// DparaPLL, DGLL, PLaNT and Hybrid over q = 1..64 nodes) and Figure 9 (ALS
// of DparaPLL vs Hybrid over q).
//
// Wall-clock time on the one-box simulation reflects the host scheduler,
// not the algorithms, so Figure 8 reports *modeled* time: max-per-node
// compute (explored vertices, distance queries) plus synchronization and
// wire costs under an explicit cost model. All inputs to the model are
// machine-independent counters metered by the cluster simulator; the
// paper's crossovers (PLaNT's near-linear scaling, DGLL/DparaPLL stalling
// on communication, DparaPLL OOM) are decided by exactly these quantities.

// ScalingQs returns the cluster sizes swept (the paper uses 8..512 cores =
// 1..64 nodes).
func ScalingQs(full bool) []int {
	if full {
		return []int{1, 2, 4, 8, 16, 32, 64}
	}
	return []int{1, 2, 4, 8, 16}
}

// Figure8Point is one (dataset, algorithm, q) sample.
type Figure8Point struct {
	Dataset   string
	Algorithm string
	Nodes     int
	Modeled   float64 // modeled seconds; 0 when OOM
	OOM       bool
	Bytes     int64
	Syncs     int64
	ALS       float64
}

// figure8NodeMemory simulates each node's 64GB DRAM, scaled to the
// laptop-sized datasets: a node may hold at most this × the dataset's CHL
// label bytes (label.Bytes per label). DparaPLL replicates the
// (redundancy-inflated) labeling on every node and trips this once its
// ALS passes 4× the CHL's — on the road graphs CAL and EAS at q = 16; the
// partitioned algorithms never come close.
const figure8NodeMemoryFactor = 4

// Figure8 runs the strong-scaling sweep.
func Figure8(cfg Config) []Figure8Point {
	cfg = cfg.Defaults()
	cm := defaultClusterCost()
	var out []Figure8Point
	for _, ds := range Suite(cfg.Full) {
		p := cfg.prepare(ds)
		chlIx, _ := pll.Sequential(p.ranked, pll.Options{})
		memLimit := int64(figure8NodeMemoryFactor) * chlIx.TotalLabels() * label.Bytes

		// PLaNT and Hybrid run in the paper's configuration, η = 16; what
		// a table that keeps growing trades is ablation X2's subject.
		for _, q := range ScalingQs(cfg.Full) {
			for _, algo := range []struct {
				name string
				run  func() (*dist.Result, error)
			}{
				{"DparaPLL", func() (*dist.Result, error) {
					return dist.DParaPLL(p.ranked, dist.Options{Nodes: q, MemoryLimitBytes: memLimit})
				}},
				{"DGLL", func() (*dist.Result, error) {
					return dist.DGLL(p.ranked, dist.Options{Nodes: q, MemoryLimitBytes: memLimit})
				}},
				{"PLaNT", func() (*dist.Result, error) {
					return dist.PLaNT(p.ranked, dist.Options{Nodes: q, MemoryLimitBytes: memLimit, Eta: dist.DefaultEta})
				}},
				{"Hybrid", func() (*dist.Result, error) {
					return dist.Hybrid(p.ranked, dist.Options{
						Nodes: q, MemoryLimitBytes: memLimit, PsiThreshold: p.ds.PsiThreshold(), Eta: dist.DefaultEta,
					})
				}},
			} {
				res, err := algo.run()
				pt := Figure8Point{Dataset: ds.Name, Algorithm: algo.name, Nodes: q}
				if err != nil {
					if !errors.Is(err, dist.ErrOutOfMemory) {
						panic(err)
					}
					pt.OOM = true
				} else {
					pt.Modeled = modeledSeconds(cm, res)
					pt.Bytes = res.Metrics.BytesSent
					pt.Syncs = res.Metrics.Synchronizations
					pt.ALS = float64(res.Index.TotalLabels()) / float64(p.n)
				}
				out = append(out, pt)
			}
		}
	}
	return out
}

// WriteFigure8 renders the sweep.
func WriteFigure8(w io.Writer, pts []Figure8Point) {
	section(w, "Figure 8: strong scaling — modeled preprocessing time (s) vs cluster size")
	t := newTable("Dataset", "Algorithm", "q", "modeled(s)", "bytes", "syncs", "ALS")
	for _, p := range pts {
		if p.OOM {
			t.row(p.Dataset, p.Algorithm, p.Nodes, "OOM", "-", "-", "-")
			continue
		}
		t.row(p.Dataset, p.Algorithm, p.Nodes, p.Modeled, p.Bytes, p.Syncs, p.ALS)
	}
	t.write(w)
}

// Figure9Point is one (dataset, algorithm, q, ALS) sample.
type Figure9Point struct {
	Dataset   string
	Algorithm string
	Nodes     int
	ALS       float64
	OOM       bool
}

// Figure9 compares DparaPLL's average label size against Hybrid's over q.
func Figure9(cfg Config) []Figure9Point {
	cfg = cfg.Defaults()
	var out []Figure9Point
	for _, ds := range Suite(cfg.Full) {
		p := cfg.prepare(ds)
		for _, q := range ScalingQs(cfg.Full) {
			dres, err := dist.DParaPLL(p.ranked, dist.Options{Nodes: q})
			pt := Figure9Point{Dataset: ds.Name, Algorithm: "DparaPLL", Nodes: q}
			if err != nil {
				pt.OOM = true
			} else {
				pt.ALS = float64(dres.Index.TotalLabels()) / float64(p.n)
			}
			out = append(out, pt)
			hres, err := dist.Hybrid(p.ranked, dist.Options{Nodes: q, PsiThreshold: p.ds.PsiThreshold(), Eta: dist.DefaultEta})
			if err != nil {
				panic(err)
			}
			out = append(out, Figure9Point{
				Dataset: ds.Name, Algorithm: "Hybrid", Nodes: q,
				ALS: float64(hres.Index.TotalLabels()) / float64(p.n),
			})
		}
	}
	return out
}

// WriteFigure9 renders the sweep.
func WriteFigure9(w io.Writer, pts []Figure9Point) {
	section(w, "Figure 9: average label size vs cluster size — DparaPLL vs Hybrid")
	t := newTable("Dataset", "Algorithm", "q", "ALS")
	for _, p := range pts {
		if p.OOM {
			t.row(p.Dataset, p.Algorithm, p.Nodes, "OOM")
			continue
		}
		t.row(p.Dataset, p.Algorithm, p.Nodes, p.ALS)
	}
	t.write(w)
}

// defaultClusterCost is the cost model for modeled preprocessing times.
func defaultClusterCost() metrics.CostModel { return metrics.DefaultCostModel() }

// modeledSeconds converts a distributed result into modeled cluster time.
// BytesSent counts every replica a collective delivers (an AllGather of B
// bytes to q−1 peers is charged B×(q−1)); a pipelined MPI collective moves
// that payload in ~B wire time, so the model normalizes by q−1.
func modeledSeconds(cm metrics.CostModel, res *dist.Result) float64 {
	m := res.Metrics
	wireBytes := m.BytesSent
	if m.Nodes > 1 {
		wireBytes /= int64(m.Nodes - 1)
	}
	return cm.Modeled(m.MaxNodeExplored, m.MaxNodeQueries, m.Synchronizations, wireBytes)
}
