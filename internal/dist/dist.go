// Package dist implements the paper's distributed labeling algorithms on
// the simulated message-passing cluster of internal/cluster:
//
//   - DParaPLL — distributed paraPLL (§3): roots are split round-robin
//     across nodes, every node prunes against a fully replicated label
//     table, and each superstep's new labels are exchanged with an
//     AllGather. No rank queries and no cleaning, so the output satisfies
//     the cover property but inflates with q (Figure 9) and the replicated
//     table is what OOMs in Figure 8.
//   - DGLL — distributed GLL (§5.1): the same superstep structure, but
//     construction performs rank queries, and every superstep ends with a
//     distributed cleaning pass (each node cleans the vertices it owns
//     against the allgathered superstep labels, then the survivors are
//     rebroadcast into the replicated global table). With Eta > 0 the top
//     η trees are PLaNTed and gathered first. Output: the CHL.
//   - PLaNT (§5.2, §5.3): roots run in the rank-ordered batches of
//     plant.BatchBounds. Every node plants its round-robin share of a batch
//     against its own replica of the Common Label Table, and one AllGather
//     per batch carries the batch's finished labels to every replica — the
//     only label traffic, and every label crosses the wire once because
//     PLaNT emits nothing redundant. Trees never wait for labels of their
//     own batch, so emission stays communication-free. Output: the CHL.
//   - Hybrid (§5.3): that loop with a vote riding each batch's collective:
//     every node reports its lowest root whose Ψ ratio exceeds PsiThreshold,
//     and once one does the remaining roots run under DGLL on the table the
//     batches have already replicated. Output: the CHL.
//
// # The Common Label Table is a replica that grows
//
// The correctness argument is the one in the internal/plant package doc,
// unchanged: a node prunes a tree of batch [lo, hi) with bound = lo against
// a replica that is complete for every hub below lo, because every earlier
// batch was gathered and appended in hub order on every node. How far the
// replica grows is Options.Eta — 0 gathers every batch (a tree's table lags
// its rank by at most a ninth, and after the last batch the replica is the
// index), η > 0 gathers only the first η trees as the paper does ("η = 16
// for all experiments"), negative gathers nothing — and, under
// Options.MemoryLimitBytes, what fits: a node holds the table below its
// bound plus the trees it grew itself, and when that exceeds the limit it
// gives up the table's newest batch (lowers its bound) instead of failing.
// Gathering stops at the first batch the table alone does not fit, and the
// remaining trees run partitioned with zero label traffic. A smaller table
// costs exploration, never correctness; the price of a larger one is
// BytesSent, which the η ablation of internal/exp charts.
//
// All functions operate in rank space (vertex 0 = highest rank) and return
// per-node label partitions alongside the assembled index, which is what
// the QFDL query mode deploys.
package dist

import (
	"errors"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// DefaultEta is the Common Label Table size the paper settles on ("we use
// η = 16 for all experiments", §7.1).
const DefaultEta = 16

// DefaultBeta is the DGLL superstep growth factor.
const DefaultBeta = 8.0

// DefaultPsiThreshold is the Hybrid switch threshold Ψth (§7.1 uses 100
// for scale-free networks; road networks pass 500 explicitly).
const DefaultPsiThreshold = 100.0

// ErrOutOfMemory is returned when a node's label storage exceeds
// Options.MemoryLimitBytes — the OOM failures of Figure 8.
var ErrOutOfMemory = errors.New("dist: per-node label storage exceeds the memory limit")

// Options configures a distributed build.
type Options struct {
	// Nodes is the simulated cluster size q (0 or 1 = one node).
	Nodes int
	// WorkersPerNode is the intra-node thread count (0 = 1).
	WorkersPerNode int
	// Eta (η) sizes the Common Label Table of PLaNT and Hybrid, with
	// plant.Options.Eta's convention: 0 grows the table batch by
	// batch, η > 0 freezes it after the first η trees (DefaultEta is the
	// paper's configuration), negative disables it. DGLL PLaNTs its top η
	// trees when η > 0; DParaPLL has no table.
	Eta int
	// PsiThreshold is Hybrid's switch threshold (0 = DefaultPsiThreshold).
	PsiThreshold float64
	// MemoryLimitBytes caps per-node label storage (0 = unlimited). PLaNT
	// and Hybrid's PLaNTed trees shrink their table to stay under it; a
	// node whose own partition does not fit, and any algorithm that must
	// replicate more than the limit, fails with ErrOutOfMemory.
	MemoryLimitBytes int64
}

func (o Options) normalize() Options {
	if o.Nodes < 1 {
		o.Nodes = 1
	}
	if o.WorkersPerNode < 1 {
		o.WorkersPerNode = 1
	}
	if o.PsiThreshold <= 0 {
		o.PsiThreshold = DefaultPsiThreshold
	}
	return o
}

// Result is the output of a distributed build.
type Result struct {
	// Index is the assembled labeling over all vertices.
	Index *label.Index
	// PerNode holds each node's label partition (labels of the trees the
	// node grew — every label appears on exactly one node). QFDL deploys
	// these directly.
	PerNode []*label.Index
	// Common is the replica of the Common Label Table node 0 holds when the
	// build ends — the whole index when every batch was gathered or DGLL
	// finished the run — and nil when Eta disabled the table.
	Common *label.Index
	// Metrics is the instrumentation record of the build.
	Metrics *metrics.Build
}

// schedule returns rank-space superstep boundaries covering [lo, hi):
// schedule[k] ≤ root < schedule[k+1] is superstep k. Superstep sizes grow
// geometrically by DefaultBeta over ceil(log_β(hi-lo)) supersteps — the
// top-ranked roots generate the most labels per tree and need the tightest
// synchronization; the long tail of cheap trees runs in a few large steps.
func schedule(lo, hi int) []int {
	n := hi - lo
	if n <= 0 {
		return []int{lo}
	}
	const beta = DefaultBeta
	s := max(int(math.Ceil(math.Log(float64(n))/math.Log(beta))), 1)
	s = min(s, n)
	total := (math.Pow(beta, float64(s)) - 1) / (beta - 1)
	bounds := make([]int, 0, s+1)
	bounds = append(bounds, lo)
	cum := 0.0
	for k := 0; k < s; k++ {
		cum += math.Pow(beta, float64(k))
		next := lo + int(math.Round(float64(n)*cum/total))
		if next <= bounds[len(bounds)-1] {
			next = bounds[len(bounds)-1] + 1
		}
		if next > hi || k == s-1 {
			next = hi
		}
		bounds = append(bounds, next)
		if next == hi {
			break
		}
	}
	return bounds
}

// clip drops the boundaries of a full-range schedule that fall at or below
// start, keeping the remaining roots on the same absolute superstep grid
// (Hybrid and the η-seeded variants resume mid-schedule this way, so a
// root's superstep does not depend on where the earlier phase stopped).
func clip(bounds []int, start, hi int) []int {
	out := []int{start}
	for _, b := range bounds {
		if b > start && b <= hi {
			out = append(out, b)
		}
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}

// labelBatch is one node's per-vertex label contribution to an AllGather.
// Received batches are read-only, per the cluster collective contract.
type labelBatch struct {
	sets  []label.Set
	count int64
}

func batchOf(sets []label.Set) labelBatch {
	var c int64
	for _, s := range sets {
		c += int64(len(s))
	}
	return labelBatch{sets: sets, count: c}
}

// mergeBatches folds allgathered batches into one per-vertex table of
// freshly allocated sorted sets (never aliasing a received payload).
func mergeBatches(n int, batches []any) []label.Set {
	merged := make([]label.Set, n)
	for _, b := range batches {
		mergeInto(merged, b.(labelBatch).sets)
	}
	// Single-contributor vertices come back as clones from Merge's
	// nil-receiver path, so everything here is node-private.
	return merged
}

// mergeInto merges the sorted sets of src into dst, vertex by vertex.
func mergeInto(dst, src []label.Set) {
	for v, s := range src {
		if len(s) > 0 {
			dst[v] = dst[v].Merge(s)
		}
	}
}

// drainSorted empties a node-local store into sorted per-vertex sets.
func drainSorted(store *label.ConcurrentStore) []label.Set {
	sets := store.Drain()
	for _, s := range sets {
		s.Sort()
	}
	return sets
}

func totalLabels(sets []label.Set) int64 {
	var t int64
	for _, s := range sets {
		t += int64(len(s))
	}
	return t
}

// perNodeCounters is one node's share of the build metrics; each node
// writes only its own slot of the shared slice.
type perNodeCounters struct {
	ptree.Stats
	storedBytes int64 // final label storage on this node
}

// run is the frame the four builders share: the build record, the simulated
// cluster's per-node counters and the root→node ownership map.
type run struct {
	g         *graph.Graph
	o         Options
	n         int
	m         *metrics.Build
	counters  []perNodeCounters
	rootOwner []int32
}

func newRun(algorithm string, g *graph.Graph, o Options) *run {
	o = o.normalize()
	n := g.NumVertices()
	r := &run{g: g, o: o, n: n, counters: make([]perNodeCounters, o.Nodes), rootOwner: make([]int32, n)}
	r.m = &metrics.Build{Algorithm: algorithm, Workers: o.WorkersPerNode, Nodes: o.Nodes, Trees: int64(n)}
	return r
}

// exec runs body on every node of a fresh cluster and folds the traffic and
// the per-node counters into the build record. body returns the node's
// replicated label table, or nil if it exceeded the memory limit (a
// replicated-deterministic decision, so every node returns together); exec
// returns node 0's.
func (r *run) exec(body func(nd *cluster.Node, c *perNodeCounters) []label.Set) []label.Set {
	var table []label.Set
	start := time.Now()
	st := cluster.New(r.o.Nodes).Run(func(nd *cluster.Node) {
		sets := body(nd, &r.counters[nd.Rank()])
		if nd.Rank() == 0 {
			table = sets
		}
	})
	m := r.m
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.BytesSent = st.BytesSent
	m.MessagesSent = st.MessagesSent
	m.Synchronizations = st.Barriers
	for _, c := range r.counters {
		m.Fold(c.Stats)
		m.MaxNodeExplored = max(m.MaxNodeExplored, c.Explored)
		m.MaxNodeQueries = max(m.MaxNodeQueries, c.Queries+c.CleanQueries)
		m.MaxNodeBytes = max(m.MaxNodeBytes, c.storedBytes)
	}
	return table
}

// result wraps the final table into a Result, cutting the per-node
// partitions from the ownership map (a label belongs to the node that grew
// its hub's tree). A nil table, or a node over the limit, is ErrOutOfMemory.
func (r *run) result(table []label.Set, common *label.Index) (*Result, error) {
	if table == nil || r.o.MemoryLimitBytes > 0 && r.m.MaxNodeBytes > r.o.MemoryLimitBytes {
		return nil, ErrOutOfMemory
	}
	ix := label.FromSets(table)
	r.m.Labels = ix.TotalLabels()
	per := make([]*label.Index, r.o.Nodes)
	for q := range per {
		per[q] = label.NewIndex(r.n)
	}
	ptree.ParallelFor(r.o.Nodes*r.o.WorkersPerNode, r.n, func(_, v int) {
		for _, l := range table[v] { // hubs ascend: a plain append
			p := per[r.rootOwner[l.Hub]]
			p.SetLabels(v, append(p.Labels(v), l))
		}
	})
	return &Result{Index: ix, PerNode: per, Common: common, Metrics: r.m}, nil
}
