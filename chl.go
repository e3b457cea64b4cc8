package chl

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/gll"
	"repro/internal/label"
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
// baselines hold the CHL plus redundant labels, which grow with the
// thread and node counts.
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
	// Algorithm selects the constructor. Default: AlgoPLaNT, the fastest
	// for either directedness — on undirected graphs build_plant_s is the
	// lowest build_*_s of bench/ on both build-road and build-scalefree,
	// and on directed ones BenchmarkBuildDirected times it against
	// AlgoSeqPLL, which stays the directed reference. Every canonical
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
	// +Inf is LCC (§4.1): one superstep takes every root and is cleaned
	// once, at the end. AlgoLCC is AlgoGLL at +Inf.
	Alpha float64

	// Nodes is the simulated cluster size q for distributed algorithms
	// (0 or 1 = single node).
	Nodes int
	// WorkersPerNode is the intra-node thread count (0 = 1).
	WorkersPerNode int
	// Eta (η) sizes the Common Label Table of every builder that PLaNTs
	// (§5.3): AlgoPLaNT (a directed build keeps a forward and a backward
	// table), AlgoDPLaNT, AlgoHybrid, and AlgoDGLL, which PLaNTs its top η
	// trees first when η > 0. 0 = the default, a table that grows with
	// every finished batch of trees, each batch an eighth of the table
	// before it (the distributed builders gather every batch into each
	// node's replica, so every label crosses the wire once); η > 0 = the
	// same, frozen after the top η trees, as the paper does (16); negative
	// = off (Algorithm 3 verbatim). With MemoryLimitBytes set a replica
	// also stops growing where a node's memory does. η changes how much the
	// trees explore, never the labels.
	Eta int
	// PsiThreshold is the Hybrid switch threshold Ψth (0 = 100).
	PsiThreshold float64
	// MemoryLimitBytes caps per-node label storage for distributed builds
	// (0 = unlimited). PLaNTed trees shrink their Common Label Table to
	// fit; a build that still cannot returns ErrOutOfMemory, simulating
	// the OOM failures of Figure 8.
	MemoryLimitBytes int64

	// Seed feeds the automatic ranking.
	Seed int64
}

// ErrOutOfMemory mirrors dist.ErrOutOfMemory for public consumption.
var ErrOutOfMemory = dist.ErrOutOfMemory

// Index is a queryable hub labeling over the original vertex ids. It holds
// its labels the way FlatIndex does: a forward and a backward half in rank
// space, the same half twice for an undirected graph (footnote 1 of the
// paper). A query u→v joins the forward labels of u with the backward
// labels of v.
type Index struct {
	n        int
	fwd, bwd *label.Index // labels in rank space; bwd == fwd when undirected
	perm     []int        // rank -> original id
	rank     []int        // original id -> rank
	metrics  *Metrics
}

// Build constructs a hub labeling for g.
//
// Directed graphs are supported by AlgoSeqPLL and AlgoPLaNT (forward and
// backward label sets, cf. footnote 1 of the paper); the remaining
// algorithms require an undirected graph. Every builder counts distances
// exactly in the graph's unit 2^-k (the graph itself refuses weights it
// could not count, at NewGraphBuilder's Finish), and Build refuses a
// labeling with a label of 2^32 units or more, which no frozen store could
// hold, naming the label.
func Build(g *Graph, opt Options) (ix *Index, err error) {
	defer refuse(&ix, &err)
	rg, ix, err := newIndex(g, opt)
	if err != nil {
		return nil, err
	}
	if g.Directed() {
		var dx *label.DirectedIndex
		switch opt.Algorithm {
		case AlgoSeqPLL:
			dx, ix.metrics = pll.SequentialDirected(rg, pll.Options{})
		case AlgoPLaNT, "":
			dx, ix.metrics = plant.RunDirected(rg, plant.Options{Workers: opt.Workers, Eta: opt.Eta})
		default:
			return nil, fmt.Errorf("chl: algorithm %q supports undirected graphs only (use AlgoSeqPLL or AlgoPLaNT for directed graphs)", opt.Algorithm)
		}
		ix.fwd, ix.bwd = dx.Forward, dx.Backward
		return ix, nil
	}
	switch opt.Algorithm {
	case AlgoSeqPLL:
		ix.fwd, ix.metrics = pll.Sequential(rg, pll.Options{})
	case AlgoSParaPLL:
		ix.fwd, ix.metrics = pll.SParaPLL(rg, pll.Options{Workers: opt.Workers})
	case AlgoLCC:
		ix.fwd, ix.metrics = gll.Run(rg, gll.Options{Workers: opt.Workers, Alpha: math.Inf(1)})
	case AlgoGLL:
		ix.fwd, ix.metrics = gll.Run(rg, gll.Options{Workers: opt.Workers, Alpha: opt.Alpha})
	case AlgoPLaNT, "":
		ix.fwd, ix.metrics = plant.Run(rg, plant.Options{Workers: opt.Workers, Eta: opt.Eta})
	case AlgoDParaPLL, AlgoDGLL, AlgoDPLaNT, AlgoHybrid:
		res, err := buildDistributed(rg, opt)
		if err != nil {
			return nil, err
		}
		ix.fwd, ix.metrics = res.Index, res.Metrics
	default:
		return nil, fmt.Errorf("chl: unknown algorithm %q", opt.Algorithm)
	}
	ix.bwd = ix.fwd
	return ix, nil
}

// refuse, deferred, turns a builder's refusal of a label past 2^32 units —
// a *label.DistError panic, raised on the caller's goroutine by
// ptree.ParallelFor and the cluster simulator — into a nil *v and that
// error. Any other panic goes on.
func refuse[T any](v **T, err *error) {
	if p := recover(); p != nil {
		var de *label.DistError
		if e, ok := p.(error); !ok || !errors.As(e, &de) {
			panic(p)
		}
		*v, *err = nil, fmt.Errorf("chl: %w", de)
	}
}

// newIndex is the prelude of every build: it refuses a nil graph and an
// order of the wrong length, then returns g in rank space beside an Index
// holding the permutation (labels unset).
func newIndex(g *Graph, opt Options) (*Graph, *Index, error) {
	if g == nil {
		return nil, nil, errors.New("chl: nil graph")
	}
	ord := opt.Order
	if ord == nil {
		ord = order.ForGraph(g, opt.Seed, opt.Workers)
	}
	if len(ord.Perm) != g.NumVertices() {
		return nil, nil, fmt.Errorf("chl: order covers %d vertices, graph has %d", len(ord.Perm), g.NumVertices())
	}
	rg, newID := g.Permute(ord.Perm)
	return rg, &Index{n: g.NumVertices(), perm: append([]int(nil), ord.Perm...), rank: newID}, nil
}

func buildDistributed(rg *Graph, opt Options) (*dist.Result, error) {
	dopts := dist.Options{
		Nodes:            opt.Nodes,
		WorkersPerNode:   opt.WorkersPerNode,
		Eta:              opt.Eta,
		PsiThreshold:     opt.PsiThreshold,
		MemoryLimitBytes: opt.MemoryLimitBytes,
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

// NumVertices returns the number of vertices the index covers.
func (ix *Index) NumVertices() int { return ix.n }

// Directed reports whether the index holds directed (forward/backward)
// labels.
func (ix *Index) Directed() bool { return ix.bwd != ix.fwd }

// Query returns the exact shortest-path distance between the original
// vertex ids u and v, or Infinity if v is unreachable from u.
func (ix *Index) Query(u, v int) float64 {
	d, _, _ := ix.QueryHub(u, v)
	return d
}

// QueryHub additionally reports the witness hub (as an original vertex id).
func (ix *Index) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	d, h, ok := label.JoinPacked(ix.fwd.Labels(ix.rank[u]), ix.bwd.Labels(ix.rank[v]))
	if !ok {
		return d, 0, false
	}
	return label.FromUnits(d, ix.fwd.UnitExp()), ix.perm[h], true
}

// Labels returns vertex u's hub labels as (original hub id, distance)
// pairs, ordered from highest-ranked hub to lowest. For directed indexes it
// returns the forward (out-) labels.
func (ix *Index) Labels(u int) []HubLabel {
	s := ix.fwd.Labels(ix.rank[u])
	out := make([]HubLabel, len(s))
	for i, l := range s {
		out[i] = HubLabel{Hub: ix.perm[label.Hub(l)], Dist: label.FromUnits(float64(label.Dist(l)), ix.fwd.UnitExp())}
	}
	return out
}

// HubLabel is one (hub, distance) pair in original-id space.
type HubLabel struct {
	Hub  int
	Dist float64
}

// Stats summarises the index.
type Stats = label.Stats

// Stats computes label statistics (ALS is the paper's "average label
// size"). A directed index counts both halves; its MaxLabels is the larger
// of theirs.
func (ix *Index) Stats() Stats {
	st := ix.fwd.Stats()
	if ix.Directed() {
		b := ix.bwd.Stats()
		st.TotalLabels += b.TotalLabels
		st.ALS += b.ALS
		st.MaxLabels = max(st.MaxLabels, b.MaxLabels)
		st.Bytes += b.Bytes
	}
	return st
}

// Metrics returns the build instrumentation, or nil for a thawed index.
// Build never fills the per-tree series (LabelsPerTree, ExploredPerTree):
// Figures 2 and 3 record them through internal/exp alone.
func (ix *Index) Metrics() *Metrics { return ix.metrics }

// Rank returns the rank position of an original vertex id (0 = highest).
func (ix *Index) Rank(v int) int { return ix.rank[v] }

// VertexAtRank returns the original id of the vertex at the given rank.
func (ix *Index) VertexAtRank(r int) int { return ix.perm[r] }
