package chl

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/gll"
	"repro/internal/label"
	"repro/internal/lcc"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/plant"
	"repro/internal/pll"
)

// Algorithm selects a label-construction algorithm.
type Algorithm string

// The construction algorithms (see the package documentation).
const (
	AlgoSeqPLL   Algorithm = "seqpll"
	AlgoSParaPLL Algorithm = "sparapll"
	AlgoLCC      Algorithm = "lcc"
	AlgoGLL      Algorithm = "gll"
	AlgoPLaNT    Algorithm = "plant"
	AlgoDParaPLL Algorithm = "dparapll"
	AlgoDGLL     Algorithm = "dgll"
	AlgoDPLaNT   Algorithm = "dplant"
	AlgoHybrid   Algorithm = "hybrid"
)

// Algorithms lists every supported algorithm name.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgoSeqPLL, AlgoSParaPLL, AlgoLCC, AlgoGLL, AlgoPLaNT,
		AlgoDParaPLL, AlgoDGLL, AlgoDPLaNT, AlgoHybrid,
	}
}

// Canonical reports whether the algorithm's output is guaranteed to be the
// Canonical Hub Labeling (minimal for the given ranking). The paraPLL
// baselines only guarantee the cover property.
func (a Algorithm) Canonical() bool {
	return a != AlgoSParaPLL && a != AlgoDParaPLL
}

// Distributed reports whether the algorithm runs on the simulated cluster.
func (a Algorithm) Distributed() bool {
	switch a {
	case AlgoDParaPLL, AlgoDGLL, AlgoDPLaNT, AlgoHybrid:
		return true
	}
	return false
}

// Metrics re-exports the instrumentation record attached to every build.
type Metrics = metrics.Build

// Options configures Build.
type Options struct {
	// Algorithm selects the constructor. Default: the fastest on the
	// scoreboard for the graph's directedness — AlgoPLaNT for undirected
	// graphs (build_plant_s is the lowest build_*_s of bench/ on build-road,
	// 0.149 s against build_gll_s 0.187 s, and on build-scalefree, 0.050 s
	// against 0.074 s), AlgoSeqPLL for directed ones. Every canonical
	// constructor emits the same labels.
	Algorithm Algorithm

	// Order is the network hierarchy R. Nil means RankAuto(g, Seed):
	// degree order for scale-free graphs, sampled betweenness for
	// road-like graphs (§7.1.1).
	Order *Order

	// Workers is the shared-memory thread count (0 = GOMAXPROCS). It also
	// bounds the sample trees the automatic ranking plants at once.
	Workers int

	// Alpha is GLL's synchronization threshold (0 = 4, per Figure 5).
	Alpha float64

	// CommonHubs sizes the Common Label Table of shared-memory PLaNT
	// (§5.3), on undirected and directed graphs alike (a directed build
	// keeps a forward and a backward table): 0 = the default, a table that
	// grows with every finished batch of trees, each batch an eighth of the
	// table before it; η > 0 = the same, frozen at the η top hubs, as the
	// paper fixes it; negative = off (Algorithm 3 verbatim). The labeling
	// is the same in every case.
	CommonHubs int

	// PlantFirstSuperstep makes AlgoGLL build its first superstep with
	// PLaNTed trees (§5.4): the pathological first cleaning phase
	// disappears because PLaNT output is canonical by construction.
	PlantFirstSuperstep bool

	// Nodes is the simulated cluster size q for distributed algorithms
	// (0 or 1 = single node).
	Nodes int
	// WorkersPerNode is the intra-node thread count (0 = 1).
	WorkersPerNode int
	// Beta is the DGLL superstep growth factor (0 = 8).
	Beta float64
	// Supersteps fixes the synchronization count (0 = ceil(log_β n)).
	Supersteps int
	// Eta is CommonHubs for the distributed algorithms, one convention:
	// 0 = AlgoDPLaNT and AlgoHybrid gather every batch's labels into each
	// node's replica of the table (least exploration, every label crosses
	// the wire once: hybrid.vertices_explored vs hybrid.bytes_sent in
	// bench/); η > 0 = only the top η trees' (16 is the paper's setting,
	// and what AlgoDGLL PLaNTs first when given one); negative = off. With
	// MemoryLimitBytes set the replica also stops growing where a node's
	// memory does.
	Eta int
	// PsiThreshold is the Hybrid switch threshold Ψth (0 = 100).
	PsiThreshold float64
	// MemoryLimitBytes caps per-node label storage for distributed builds
	// (0 = unlimited). PLaNTed trees shrink their Common Label Table to
	// fit; a build that still cannot returns ErrOutOfMemory, simulating
	// the OOM failures of Figure 8.
	MemoryLimitBytes int64

	// RecordPerTree keeps per-tree label and exploration counts (Figures
	// 2 and 3) in the build metrics.
	RecordPerTree bool

	// Seed feeds the automatic ranking.
	Seed int64
}

// ErrOutOfMemory mirrors dist.ErrOutOfMemory for public consumption.
var ErrOutOfMemory = dist.ErrOutOfMemory

// Index is a queryable hub labeling over the original vertex ids.
type Index struct {
	n        int
	ranked   *label.Index // labels in rank space
	perm     []int        // rank -> original id
	rank     []int        // original id -> rank
	perNode  []*label.Index
	metrics  *Metrics
	directed *label.DirectedIndex // non-nil for directed graphs
}

// Build constructs a hub labeling for g.
//
// Directed graphs are supported by AlgoSeqPLL and AlgoPLaNT (forward and
// backward label sets, cf. footnote 1 of the paper); the remaining
// algorithms require an undirected graph.
func Build(g *Graph, opt Options) (*Index, error) {
	if g == nil {
		return nil, errors.New("chl: nil graph")
	}
	ord := opt.Order
	if ord == nil {
		ord = order.ForGraph(g, opt.Seed, opt.Workers)
	}
	if len(ord.Perm) != g.NumVertices() {
		return nil, fmt.Errorf("chl: order covers %d vertices, graph has %d", len(ord.Perm), g.NumVertices())
	}
	rg, newID := g.Permute(ord.Perm)

	if g.Directed() {
		return buildDirected(rg, ord, newID, opt)
	}
	if opt.Algorithm == "" {
		opt.Algorithm = AlgoPLaNT
	}

	ix := &Index{n: g.NumVertices(), perm: append([]int(nil), ord.Perm...), rank: newID}
	var err error
	switch opt.Algorithm {
	case AlgoSeqPLL:
		ix.ranked, ix.metrics = pll.Sequential(rg, pll.Options{RecordPerTree: opt.RecordPerTree})
	case AlgoSParaPLL:
		ix.ranked, ix.metrics = pll.SParaPLL(rg, pll.Options{Workers: opt.Workers})
	case AlgoLCC:
		ix.ranked, ix.metrics = lcc.Run(rg, lcc.Options{Workers: opt.Workers})
	case AlgoGLL:
		gopts := gll.Options{Workers: opt.Workers, Alpha: opt.Alpha}
		if opt.PlantFirstSuperstep {
			ix.ranked, ix.metrics = gll.RunPlantFirst(rg, gopts)
		} else {
			ix.ranked, ix.metrics = gll.Run(rg, gopts)
		}
	case AlgoPLaNT:
		ix.ranked, ix.metrics = plant.Run(rg, plant.Options{
			Workers: opt.Workers, CommonHubs: opt.CommonHubs, RecordPerTree: opt.RecordPerTree,
		})
	case AlgoDParaPLL, AlgoDGLL, AlgoDPLaNT, AlgoHybrid:
		var res *dist.Result
		res, err = buildDistributed(rg, opt)
		if err != nil {
			return nil, err
		}
		ix.ranked = res.Index
		ix.perNode = res.PerNode
		ix.metrics = res.Metrics
	default:
		return nil, fmt.Errorf("chl: unknown algorithm %q", opt.Algorithm)
	}
	return ix, err
}

func buildDistributed(rg *Graph, opt Options) (*dist.Result, error) {
	dopts := dist.Options{
		Nodes:            opt.Nodes,
		WorkersPerNode:   opt.WorkersPerNode,
		Beta:             opt.Beta,
		Supersteps:       opt.Supersteps,
		Eta:              opt.Eta,
		PsiThreshold:     opt.PsiThreshold,
		MemoryLimitBytes: opt.MemoryLimitBytes,
		RecordPerTree:    opt.RecordPerTree,
	}
	switch opt.Algorithm {
	case AlgoDParaPLL:
		return dist.DParaPLL(rg, dopts)
	case AlgoDGLL:
		return dist.DGLL(rg, dopts)
	case AlgoDPLaNT:
		return dist.PLaNT(rg, dopts)
	case AlgoHybrid:
		return dist.Hybrid(rg, dopts)
	}
	panic("chl: unreachable")
}

func buildDirected(rg *Graph, ord *Order, newID []int, opt Options) (*Index, error) {
	ix := &Index{n: rg.NumVertices(), perm: append([]int(nil), ord.Perm...), rank: newID}
	switch opt.Algorithm {
	case AlgoSeqPLL, "":
		dx, m := pll.SequentialDirected(rg, pll.Options{RecordPerTree: opt.RecordPerTree})
		ix.directed = dx
		ix.metrics = m
	case AlgoPLaNT:
		dx, m := plant.RunDirected(rg, plant.Options{
			Workers: opt.Workers, CommonHubs: opt.CommonHubs, RecordPerTree: opt.RecordPerTree,
		})
		ix.directed = dx
		ix.metrics = m
	default:
		return nil, fmt.Errorf("chl: algorithm %q supports undirected graphs only (use AlgoSeqPLL or AlgoPLaNT for directed graphs)", opt.Algorithm)
	}
	return ix, nil
}

// NumVertices returns the number of vertices the index covers.
func (ix *Index) NumVertices() int { return ix.n }

// Directed reports whether the index holds directed (forward/backward)
// labels.
func (ix *Index) Directed() bool { return ix.directed != nil }

// Query returns the exact shortest-path distance between the original
// vertex ids u and v, or Infinity if v is unreachable from u.
func (ix *Index) Query(u, v int) float64 {
	ru, rv := ix.rank[u], ix.rank[v]
	if ix.directed != nil {
		return ix.directed.Query(ru, rv)
	}
	return ix.ranked.Query(ru, rv)
}

// QueryHub additionally reports the witness hub (as an original vertex id).
func (ix *Index) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	if ix.directed != nil {
		d, h, k := label.QueryMerge(ix.directed.Forward.Labels(ix.rank[u]), ix.directed.Backward.Labels(ix.rank[v]))
		if !k {
			return d, 0, false
		}
		return d, ix.perm[h], true
	}
	d, h, k := ix.ranked.QueryHub(ix.rank[u], ix.rank[v])
	if !k {
		return d, 0, false
	}
	return d, ix.perm[h], true
}

// Labels returns vertex u's hub labels as (original hub id, distance)
// pairs, ordered from highest-ranked hub to lowest. For directed indexes it
// returns the forward (out-) labels.
func (ix *Index) Labels(u int) []HubLabel {
	var s label.Set
	if ix.directed != nil {
		s = ix.directed.Forward.Labels(ix.rank[u])
	} else {
		s = ix.ranked.Labels(ix.rank[u])
	}
	out := make([]HubLabel, len(s))
	for i, l := range s {
		out[i] = HubLabel{Hub: ix.perm[l.Hub], Dist: l.Dist}
	}
	return out
}

// HubLabel is one (hub, distance) pair in original-id space.
type HubLabel struct {
	Hub  int
	Dist float64
}

// Stats summarises the index.
type Stats struct {
	Vertices    int
	TotalLabels int64
	ALS         float64
	MaxLabels   int
	Bytes       int64
}

// Stats computes label statistics (ALS is the paper's "average label
// size").
func (ix *Index) Stats() Stats {
	var st label.Stats
	if ix.directed != nil {
		f := ix.directed.Forward.Stats()
		b := ix.directed.Backward.Stats()
		st = label.Stats{
			Vertices:    f.Vertices,
			TotalLabels: f.TotalLabels + b.TotalLabels,
			ALS:         f.ALS + b.ALS,
			Bytes:       f.Bytes + b.Bytes,
		}
		if b.MaxLabels > f.MaxLabels {
			st.MaxLabels = b.MaxLabels
		} else {
			st.MaxLabels = f.MaxLabels
		}
	} else {
		st = ix.ranked.Stats()
	}
	return Stats{
		Vertices:    st.Vertices,
		TotalLabels: st.TotalLabels,
		ALS:         st.ALS,
		MaxLabels:   st.MaxLabels,
		Bytes:       st.Bytes,
	}
}

// Metrics returns the build instrumentation, or nil for a thawed index.
func (ix *Index) Metrics() *Metrics { return ix.metrics }

// Rank returns the rank position of an original vertex id (0 = highest).
func (ix *Index) Rank(v int) int { return ix.rank[v] }

// VertexAtRank returns the original id of the vertex at the given rank.
func (ix *Index) VertexAtRank(r int) int { return ix.perm[r] }
