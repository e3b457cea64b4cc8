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
//     rebroadcast into the replicated global table). Output: the CHL.
//   - PLaNT (§5.2): trees are embarrassingly parallel and exchange *no*
//     label traffic; the only communication is the one-time broadcast of
//     the Common Label Table (§5.3). Labels stay partitioned by the node
//     that grew the tree. Output: the CHL.
//   - Hybrid (§5.3): PLaNT while trees are productive, monitored by the
//     per-tree Ψ ratio; once Ψ exceeds PsiThreshold the remaining roots run
//     under DGLL (seeded with the PLaNTed labels). Output: the CHL.
//
// All functions operate in rank space (vertex 0 = highest rank) and return
// per-node label partitions alongside the assembled index, which is what
// the QFDL query mode deploys.
package dist

import (
	"errors"
	"math"

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
	// Beta is the superstep growth factor (0 = DefaultBeta).
	Beta float64
	// Supersteps fixes the superstep count (0 = ceil(log_β n)).
	Supersteps int
	// Eta is the Common Label Table size. 0 means the per-algorithm
	// default (DefaultEta for PLaNT and Hybrid, off for DParaPLL/DGLL);
	// negative disables the table everywhere.
	Eta int
	// PsiThreshold is Hybrid's switch threshold (0 = DefaultPsiThreshold).
	PsiThreshold float64
	// MemoryLimitBytes caps per-node label storage (0 = unlimited).
	MemoryLimitBytes int64
	// RecordPerTree keeps per-tree label/exploration counts where the
	// algorithm builds whole trees (PLaNT and Hybrid's PLaNT phase).
	RecordPerTree bool
}

func (o Options) normalize() Options {
	if o.Nodes < 1 {
		o.Nodes = 1
	}
	if o.WorkersPerNode < 1 {
		o.WorkersPerNode = 1
	}
	if o.Beta <= 1 {
		o.Beta = DefaultBeta
	}
	if o.PsiThreshold <= 0 {
		o.PsiThreshold = DefaultPsiThreshold
	}
	return o
}

// eta resolves the Common Label Table size for an algorithm whose default
// is def, clamped to the vertex count.
func (o Options) eta(def, n int) int {
	e := o.Eta
	if e == 0 {
		e = def
	}
	if e < 0 {
		e = 0
	}
	if e > n {
		e = n
	}
	return e
}

// Result is the output of a distributed build.
type Result struct {
	// Index is the assembled labeling over all vertices.
	Index *label.Index
	// PerNode holds each node's label partition (labels of the trees the
	// node grew — every label appears on exactly one node). QFDL deploys
	// these directly.
	PerNode []*label.Index
	// Common is the Common Label Table (labels of the top-η hubs), nil
	// when the table was disabled.
	Common *label.Index
	// Metrics is the instrumentation record of the build.
	Metrics *metrics.Build
}

// schedule returns rank-space superstep boundaries covering [lo, hi):
// schedule[k] ≤ root < schedule[k+1] is superstep k. Superstep sizes grow
// geometrically by beta — the top-ranked roots generate the most labels per
// tree and need the tightest synchronization; the long tail of cheap trees
// runs in a few large steps. With supersteps > 0 the count is fixed;
// otherwise it is ceil(log_beta(hi-lo)).
func schedule(lo, hi int, beta float64, supersteps int) []int {
	n := hi - lo
	if n <= 0 {
		return []int{lo}
	}
	s := supersteps
	if s <= 0 {
		s = int(math.Ceil(math.Log(float64(n)) / math.Log(beta)))
		if s < 1 {
			s = 1
		}
	}
	if s > n {
		s = n
	}
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

// fold sums per-node counters into the build record and fills the per-node
// maxima the cost model needs.
func fold(m *metrics.Build, cs []perNodeCounters) {
	for _, c := range cs {
		m.Fold(c.Stats)
		m.MaxNodeExplored = max(m.MaxNodeExplored, c.Explored)
		m.MaxNodeQueries = max(m.MaxNodeQueries, c.Queries+c.CleanQueries)
		m.MaxNodeBytes = max(m.MaxNodeBytes, c.storedBytes)
	}
}

// assemble builds the per-node partitions from the final index and the
// root→node ownership map (a label belongs to the node that grew its hub's
// tree).
func assemble(ix *label.Index, rootOwner []int32, q int) []*label.Index {
	per := make([]*label.Index, q)
	for r := range per {
		per[r] = label.NewIndex(ix.NumVertices())
	}
	for v := 0; v < ix.NumVertices(); v++ {
		for _, l := range ix.Labels(v) {
			per[rootOwner[l.Hub]].Append(v, l)
		}
	}
	return per
}

// indexFromSets wraps per-vertex sets, sorting each (PLaNT sinks append in
// distance order, not hub order).
func indexFromSets(sets []label.Set) *label.Index {
	ix := label.FromSets(sets)
	ix.SortAll()
	return ix
}

// guard panics on nil graphs the same way the shared-memory packages do.
func guard(g *graph.Graph) int { return g.NumVertices() }
