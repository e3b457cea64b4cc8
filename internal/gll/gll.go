// Package gll implements the Global Local Labeling algorithm of §4.2 — the
// paper's fastest shared-memory CHL constructor.
//
// GLL runs LCC-style construction (rank + distance query pruned Dijkstras)
// but interleaves cleaning: whenever roughly α·n new labels have
// accumulated in a Local Label Table, the threads synchronize, clean *only
// the local labels* (everything in the Global Label Table was cleaned in an
// earlier superstep and, because roots are processed in rank order, can
// never become redundant later), and commit the survivors to the Global
// Table. Two benefits over LCC follow directly:
//
//   - cleaning work drops from O(n·w²·log²n) to O(n·α·w·logn) because each
//     cleaning query scans label sets of size O(α) instead of the full sets;
//   - the global table is immutable during construction, so the (majority
//     of) pruning queries that it answers need no locks; only the small
//     local table is locked, and a vertex with no local labels not even that.
//
// Committing costs no more than cleaning: every hub a superstep commits is
// one of its roots, roots are taken in rank order, so each committed hub has
// a larger id than every hub already in the global table and the survivors are
// appended to a vertex's global set, never merged into it. A global set only
// ever grows at its end; what an earlier superstep committed stays in place.
//
// LCC (§4.1) is GLL at α = +Inf: the budget is never spent, so the one
// superstep builds every tree with rank queries against one locked table —
// the local one, beside an empty global table — which is LCC-I, and its one
// cleaning pass runs over the full sets, which is LCC-II. Run names such a
// build "LCC".
//
// The package operates in rank space (vertex 0 = highest rank).
package gll

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// DefaultAlpha is the synchronization threshold the paper settles on after
// the Figure 5 sweep ("we set α = 4 for further experiments").
const DefaultAlpha = 4.0

// Options configures a GLL run.
type Options struct {
	// Workers is the number of goroutines. Zero means GOMAXPROCS.
	Workers int
	// Alpha is the synchronization threshold: a superstep's construction
	// phase ends once α·n labels sit in the local table. Zero means
	// DefaultAlpha; +Inf is LCC (package doc).
	Alpha float64
	// Profile enables lock-acquisition counting on the local table (the
	// two-table ablation).
	Profile bool
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if !(o.Alpha > 0) { // NaN too
		o.Alpha = DefaultAlpha
	}
	return o
}

// Run executes GLL and returns the CHL for the identity rank order of g.
// At Alpha = +Inf that is LCC, and the build record says so.
func Run(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	if math.IsInf(opts.Alpha, 1) {
		return run(g, opts, "LCC", false)
	}
	return run(g, opts, "GLL", false)
}

func run(g *graph.Graph, opts Options, algorithm string, plantFirst bool) (*label.Index, *metrics.Build) {
	st := NewState(g, opts)
	m := &metrics.Build{Algorithm: algorithm, Workers: st.opts.Workers, Trees: int64(g.NumVertices())}
	start := time.Now()
	if plantFirst {
		st.plantFirstSuperstep(m)
	}
	for !st.Done() {
		st.Superstep(m)
	}
	m.TotalTime = time.Since(start)
	m.LockAcquisitions = st.LockCount()
	ix := st.Index()
	m.Labels = ix.TotalLabels()
	return ix, m
}

// State is the shared state of a GLL run, split out so that RunPlantFirst
// can substitute the first superstep and tests can drive supersteps one by
// one and observe the intermediate tables.
type State struct {
	g      *graph.Graph
	opts   Options
	global []label.Set // Global Label Table: immutable during construction
	local  *label.ConcurrentStore
	scr    []*ptree.Scratch // one per worker, kept across supersteps
	next   atomic.Int64     // next root
	steps  int
}

// NewState prepares a GLL run over g.
func NewState(g *graph.Graph, opts Options) *State {
	opts = opts.normalize()
	n := g.NumVertices()
	st := &State{
		g:      g,
		opts:   opts,
		global: make([]label.Set, n),
		local:  label.NewConcurrentStore(n),
		scr:    ptree.NewScratches(opts.Workers, n),
	}
	if opts.Profile {
		st.local.EnableProfiling()
	}
	return st
}

// Done reports whether every root's SPT has been constructed.
func (st *State) Done() bool { return st.next.Load() >= int64(st.g.NumVertices()) }

// Steps returns the number of supersteps executed so far.
func (st *State) Steps() int { return st.steps }

// LockCount returns local-table lock acquisitions (Profile option).
func (st *State) LockCount() int64 { return st.local.LockCount() }

// GlobalLabels returns the current label set of v in the global table.
func (st *State) GlobalLabels(v int) label.Set { return st.global[v] }

// Index seals the run into a queryable index. Call only after Done.
func (st *State) Index() *label.Index {
	return label.FromSets(st.global, st.g.WeightUnitExp())
}

// Superstep runs one Label Construction phase (until the local table holds
// ≥ α·n labels or roots are exhausted) followed by one Label Cleaning +
// commit phase.
func (st *State) Superstep(m *metrics.Build) {
	st.steps++
	t0 := time.Now()
	m.Fold(st.roots(st.tree))
	m.ConstructTime += time.Since(t0)

	t1 := time.Now()
	m.Fold(st.cleanAndCommit())
	m.CleanTime += time.Since(t1)
	m.Synchronizations++
}

// roots is the pool of a construction phase: workers pull roots in rank
// order and build tree(worker, root) until the generated-label budget α·n of
// the superstep is exhausted (threads finish the tree they are on, so every
// root below the high-water mark is complete at the barrier — the property
// the cleaning correctness argument needs).
func (st *State) roots(tree func(w, h int) ptree.Stats) ptree.Stats {
	n := st.g.NumVertices()
	// α·n saturates at MaxInt64, a budget no run spends (α = +Inf: LCC).
	budget := int64(math.MaxInt64)
	if b := st.opts.Alpha * float64(n); b < math.MaxInt64 {
		budget = max(int64(b), 1)
	}
	var generated atomic.Int64
	stats := make([]ptree.Stats, st.opts.Workers)
	// One task per worker; each loops until the budget is spent.
	ptree.ParallelFor(st.opts.Workers, st.opts.Workers, func(w, _ int) {
		for generated.Load() < budget {
			h := int(st.next.Add(1)) - 1
			if h >= n {
				return
			}
			ts := tree(w, h)
			generated.Add(ts.Labels)
			stats[w].Add(ts)
		}
	})
	return ptree.Sum(stats)
}

// tree builds the pruned SPT rooted at h: Algorithm 1 with rank queries,
// pruned against the lock-free global table and the locked local table,
// labels going to the local table.
func (st *State) tree(w, h int) ptree.Stats {
	s := st.scr[w]
	s.HashRoot(h, st.global, st.local)
	return ptree.TwoTableTree(st.g, h, s, true, st.global, st.local)
}

// cleanAndCommit drains the local table, sorts it, and appends to the global
// table the local labels DQ_Clean does not find redundant.
//
// This is where GLL's cleaning advantage comes from (§4.2: "the label
// cleaning only needs to query for redundant labels on the local table").
// A witness pair ((w,v), (w,h)) proving a label redundant is emitted by a
// single tree, SPT_w, so both its labels land in the same superstep's
// table. If that superstep were an earlier one, both labels sat in the
// global tables when (h, δ) was generated — and the construction-time
// distance query, which sees the global tables in full, would have pruned
// the label. Hence every possible witness for a local label is itself
// local×local, the cleaning query joins only the two local sets, and a
// cleaning step performs O(n·α²) work (the paper's bound) no matter how
// large the committed global tables have grown — LCC, the one superstep of
// α = +Inf, by contrast rescans the full final sets for every label. The
// commit is an append (package doc), so it too touches only the
// superstep's own labels.
func (st *State) cleanAndCommit() ptree.Stats {
	locals := ptree.DrainSorted(st.local, st.opts.Workers)
	stats := ptree.Clean(st.global, locals, st.opts.Workers, 0, 1)
	st.local.Recycle(locals)
	return stats
}
