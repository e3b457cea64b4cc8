// Package plant implements PLaNT — "Prune Labels and (do) Not (prune)
// Trees" (§5.2, Algorithm 3), the paper's key contribution.
//
// A PLaNTed shortest path tree is a Dijkstra from the root h that
// propagates, alongside distances, the highest-ranked *ancestor* seen on
// (any) shortest path from h: a[v] = argmax-rank over the vertices of the
// best shortest path from h to v, endpoints included. When v is settled, the
// label (h, δ_v) is emitted iff neither v nor a[v] outranks h — i.e. iff h
// is the maximum-rank vertex on the highest-ancestor shortest path, which
// after the tie-breaking rule of Algorithm 3 line 12 is the maximum over ALL
// shortest h–v paths. That is exactly the membership condition of the
// Canonical Hub Labeling, so PLaNT emits canonical labels using information
// intrinsic to its own tree: emission never consults a label table, hence
// no cleaning pass and no inter-node communication when trees are
// distributed across a cluster.
//
// Two optimizations from the paper are included:
//
//   - Early termination: a counter tracks how many queued vertices still
//     have the root as their best ancestor; when it reaches zero no future
//     vertex can produce a label, and the traversal stops (§5.2).
//   - Common-label pruning (§5.3): given a Common Label Table holding the
//     *complete* canonical label sets of every hub ranked above some bound,
//     a settled vertex that one of those hubs covers at ≤ δ_v is cut. The
//     paper fixes the table at the η = 16 top hubs; Run grows it batch by
//     batch, each batch an eighth of the table it is pruned against
//     (BatchBounds) — in shared memory every finished tree's labels are
//     already in RAM, and internal/dist runs the same schedule on a cluster
//     by gathering each batch's labels into every node's replica.
//     RunDirected keeps a forward and a backward table on that schedule.
//
// # Why pruned PLaNT still emits exactly the CHL
//
// Write T for the table, b for its bound (T holds every canonical label
// whose hub id is < b, and b ≤ h), d for true distances and δ_v for the
// tentative distance v is settled with. The cut rule is: drop v, without
// emitting or relaxing, when some hub w < b has d(w,v) + d(w,h) ≤ δ_v.
//
//   - Every settled vertex either carries its true distance or is cut.
//     Suppose v settles with δ_v > d(h,v) and follow a true shortest h–v path
//     to its first vertex x that was not expanded at its true distance. The
//     predecessor of x was, so x was queued — and, weights being positive,
//     settled before v — at d(h,x); not having been expanded it was cut, by
//     some w < b with d(w,x) + d(w,h) ≤ d(h,x). Then w lies on a shortest
//     h–v path, so the maximum-rank vertex m of all shortest h–v paths has
//     m ≤ w < b; m is a canonical hub of both h and v, T holds both labels,
//     and the query returns d(h,v) < δ_v: v is cut. No label ever carries
//     an inflated distance.
//   - A cut vertex never needed the root, nor does anything reached only
//     through it. A vertex cut at its true distance has a higher-ranked w
//     on a shortest path from h, so h is not its path maximum; and a
//     shortest h–u path through that vertex contains w too.
//   - No vertex that needs the root is lost. If h is the maximum over all
//     shortest h–u paths, it is the maximum over all shortest paths to every
//     vertex on them (a higher-ranked detour to a prefix would extend to u).
//     None of those vertices is covered by a hub above h at its true
//     distance, so none is cut, every shortest h–u path is explored in full,
//     and u settles with d(h,u) and ancestor h, exactly as in the unpruned
//     tree.
//   - The ancestor shortcut equals the query. If nA = min(v, a[v]) < b,
//     the explored path of length δ_v contains a vertex ranked above the
//     bound. Either δ_v is inflated and the first point applies, or nA lies
//     on a shortest h–v path, the path maximum m ≤ nA < b is in both
//     canonical label sets, and the query finds d(m,v) + d(m,h) = δ_v.
//     Both ways the query is certain to succeed, so it is not issued. The
//     query is still needed when nA ≥ b: the shortest paths through a cut
//     vertex were never explored, so the ancestors of what lies behind it
//     do not know about w.
//   - What the table does not know is harmless. T is only ever used to
//     cut; emission is decided by ancestors alone. A hub in [b, h) — a
//     tree of the same batch, finished or not, on this node or another —
//     is simply not consulted: vertices it covers are explored as unpruned
//     PLaNT would and rejected by the ancestor rule. Less knowledge costs
//     exploration, never correctness, which is also why a tree's work
//     depends on the batch schedule alone and not on how workers
//     interleave.
//
// On a directed graph every point holds per orientation. A tree over G reads
// d(w,h) above as d(h→w) from Lout(h) and d(w,v) as d(w→v) from Lin(v); the
// maximum-rank vertex of all shortest h→v paths is a hub of both sets. A
// tree over Gᵀ is the mirror.
//
// # Settling a bucket at a time
//
// A tree runs in the graph's integer units (internal/graph) and settles
// from a vheap.Window a bucket at a time, in FIFO order. Bucket number k
// holds the distances d with d >> s = k, where 2^s is the largest power of
// two not above w_min, the lightest arc. A relaxation d + w from bucket k
// has w ≥ w_min ≥ 2^s, so (d + w) >> s ≥ k + 1: it lands in a strictly
// later bucket, by integer arithmetic. So when a bucket is reached every
// vertex in it has its final distance and its final best ancestor — each
// of its shortest-path predecessors lies in an earlier bucket and has
// settled — and the order within the bucket is free. Every rule above is
// applied when a vertex settles, as in a heap-ordered Dijkstra; only early
// termination may stop at a different vertex of the last bucket, which
// moves the work counters and never the labels. A tree that would emit a
// label of 2^32 units or more refuses it (label.Units).
//
// The package operates in rank space (vertex 0 = highest rank).
package plant

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// Scratch holds the per-worker state of PLaNT Dijkstra, reusable across
// trees (reset costs O(touched), not O(n)): the shared Dijkstra scratch,
// whose bucket window the tree settles from, plus what ancestor propagation
// adds. HD holds the root's table labels.
type Scratch struct {
	*ptree.Scratch
	anc     []int32 // a[v]: best (minimum-id) ancestor on current best path
	settled []bool
}

// NewScratch allocates scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	return &Scratch{Scratch: ptree.NewScratch(n), anc: make([]int32, n), settled: make([]bool, n)}
}

// NewScratches allocates one Scratch per worker of a pool.
func NewScratches(workers, n int) []*Scratch {
	scr := make([]*Scratch, workers)
	for w := range scr {
		scr[w] = NewScratch(n)
	}
	return scr
}

// Sink receives the labels emitted by one PLaNTed tree, in bucket order:
// by distance, up to the order of the distances that share a bucket. v is
// the labeled vertex; the hub is the tree root.
type Sink func(v int, dist uint32)

// Tree runs Algorithm 3 (PLaNTDijkstra) from root h over g, emitting labels
// into sink. The tree is pruned per §5.3 against a Common Label Table that
// holds the complete label sets of every hub ranked above commonBound (= η,
// or the first root of the tree's batch): the root's own labels are read
// from root and hashed, a settled vertex's are read from probe and queried.
// On an undirected graph the two are one table. A tree over a directed G
// hashes Lout(h) and probes Lin(v); a tree over Gᵀ does the mirror. The
// tables are only read, and only below the bound; with commonBound 0 they
// are not read at all and may be nil.
//
// The tree settles a bucket of its window at a time, in FIFO order, with
// buckets no wider than the lightest arc (package doc): every vertex of a
// bucket has its final distance and ancestor when the bucket is reached.
//
// Differences from the paper's pseudo-code, both deliberate: edge
// relaxation happens even when the settled vertex produces no label (Figure
// 1c shows this; otherwise ancestors would not propagate past high-ranked
// vertices), and settled vertices are never re-relaxed.
func Tree(g *graph.Graph, h int, s *Scratch, root, probe *label.Index, commonBound uint32, sink Sink) ptree.Stats {
	var st ptree.Stats
	for _, v := range s.Dirty {
		s.settled[v] = false
	}
	s.Reset(h)
	s.anc[h] = int32(h)
	cnt := 1 // queued vertices whose best ancestor is the root

	// Only hubs that outrank the root can cut its tree; the root's own
	// labels, should the table hold them, must not.
	bound := commonBound
	if uint32(h) < bound {
		bound = uint32(h)
	}
	prune := bound > 0
	if prune {
		s.HD.Load(root.Labels(h))
	}

	dist, win, k := s.Dist, s.Win, g.WeightUnitExp()
	win.Start(g.MinUnits())
	win.Queue(h, 0)
	var explored, relaxed int64
	for more := true; more && cnt > 0; more = win.Next(dist) {
		// Every relaxation lands in a later bucket, so this one does not
		// grow while it is settled.
		for _, e := range win.Bucket() {
			if cnt == 0 {
				break // early termination: no queued vertex can yield a label
			}
			v, dv := int(e.V), e.D
			if dv != dist[v] {
				continue // improved since it was queued here
			}
			s.settled[v] = true
			explored++
			av := s.anc[v]
			if av == int32(h) {
				cnt--
			}
			// nA = argmax rank over {v, a[v]} = min id.
			nA := av
			if int32(v) < nA {
				nA = int32(v)
			}
			// Common-label pruning (§5.3): if a hub ranked above the bound
			// covers (h, v) at distance ≤ δv, neither v nor anything whose
			// shortest paths run through v can take h as a hub — cut the
			// subtree. An ancestor above the bound is such a cover already
			// (package doc), so only the other vertices pay for a query.
			if prune {
				if uint32(nA) < bound {
					st.RankPruned++
					continue
				}
				if v != h {
					st.Queries++
					if s.HD.QueryAgainstBounded(probe.Labels(v), dv, bound) {
						st.DistPruned++
						continue
					}
				}
			}
			if nA >= int32(h) { // R[nA] ≤ R[h]: the root is the path maximum
				sink(v, label.Units(v, uint32(h), dv, k))
				st.Labels++
			}
			heads, wts := g.Neighbors(v)
			relaxed += int64(len(heads))
			for i, uu := range heads {
				u := int(uu)
				nd := dv + uint64(wts[i])
				// A settled u has dist[u] ≤ nd, so only the equal-length
				// branch asks whether u is settled.
				du := dist[u]
				if nd < du {
					if du == graph.Unreached {
						s.Dirty = append(s.Dirty, int32(uu))
					}
					// a[u] = argmax rank over {nA, u} (Alg. 3 line 11).
					na := nA
					if int32(u) < na {
						na = int32(u)
					}
					prev := du != graph.Unreached && s.anc[u] == int32(h)
					now := na == int32(h)
					if now && !prev {
						cnt++
					} else if !now && prev {
						cnt--
					}
					s.anc[u] = na
					dist[u] = nd
					win.Queue(u, nd)
				} else if nd == du && !s.settled[u] {
					// Equal-length path: keep the higher-ranked ancestor
					// (Alg. 3 line 12) so the emitted labels reflect the
					// maximum over ALL shortest paths.
					pa := s.anc[u]
					na := nA
					if int32(u) < na {
						na = int32(u)
					}
					if pa < na {
						na = pa
					}
					if na != pa {
						prev := pa == int32(h)
						now := na == int32(h)
						if now && !prev {
							cnt++
						} else if !now && prev {
							cnt--
						}
						s.anc[u] = na
					}
				}
			}
		}
	}
	st.Explored, st.Relaxed = explored, relaxed
	return st
}

// Options configures a shared-memory PLaNT run.
type Options struct {
	// Workers is the number of goroutines. Zero means GOMAXPROCS.
	Workers int
	// RecordPerTree enables the per-tree series for Figure 3.
	RecordPerTree bool
	// Eta (η) sizes the Common Label Table that prunes the trees
	// (§5.3); dist.Options.Eta follows the same convention. Zero grows
	// the table as trees finish: roots run in rank-ordered batches
	// (BatchBounds) and each batch is pruned against the labels of all
	// earlier ones — a table at most a ninth behind the tree's rank. η > 0
	// grows the table the same way up to the first η trees and freezes it
	// there, as the paper does ("η = 16 for all experiments"), and as
	// internal/dist does with the same η. Negative disables pruning
	// (Algorithm 3 verbatim). RunDirected keeps one table per direction on
	// the same schedule. The output is the CHL in every case.
	Eta int
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// firstBatch is the size of the first batches of the growing schedule, and
// the least any batch grows by. The top trees label almost every vertex
// whatever they are pruned against, so a smaller batch buys a barrier and
// no pruning.
const firstBatch = 16

// BatchBounds returns the boundaries of the root batches: batch k is
// [bounds[k], bounds[k+1]) and its trees are pruned against the labels of
// every earlier batch. The three pruning modes differ in nothing else:
// η = 0 grows the table to the end, η > 0 grows it the same way up to η
// and plants [η, n) as one batch (η ≥ n is η = 0), and a negative η plants
// [0, n) as one.
func BatchBounds(n, commonHubs int) []int {
	bounds := []int{0}
	if commonHubs >= 0 {
		end := n
		if commonHubs > 0 && commonHubs < n {
			end = commonHubs
		}
		// [0,16) [16,32) … [128,144) [144,162) [162,182) …: each batch is an
		// eighth of the table it is pruned against, so no tree's table lags
		// its rank by more than 1/9. A function of n and η alone.
		for b := firstBatch; b < end; b += max(firstBatch, b/8) {
			bounds = append(bounds, b)
		}
		if end < n {
			bounds = append(bounds, end)
		}
	}
	if n > 0 {
		bounds = append(bounds, n)
	}
	return bounds
}

// Emitted is one label of the batch in flight, filed under its tree.
type Emitted struct {
	V, Dist uint32
}

// Span locates one tree's labels: Outs[W][Lo:Hi].
type Span struct {
	W      int32
	Lo, Hi int
}

// Batch holds the trees grown since the last commit, for Commit to append
// in hub order. It is the one way a PLaNTed label reaches a table: Run,
// RunDirected, internal/dist's nodes and GLL's PLaNTed first superstep all
// plant here. Workers plant concurrently, each appending its trees' labels
// to its own buffer, one tree after the other.
type Batch struct {
	Spans []Span      // tree i's labels are Outs[Spans[i].W][Spans[i].Lo:Spans[i].Hi]
	Outs  [][]Emitted // one buffer per worker
}

// Plant runs Tree from root h over g on worker w's scratch s, pruned against
// root and probe below bound, and files the labels as tree i. Concurrent
// calls need distinct workers and distinct trees.
func (b *Batch) Plant(g *graph.Graph, root, probe *label.Index, bound int, s *Scratch, w, i, h int) ptree.Stats {
	// A local, written back once per tree: the workers' slots share cache
	// lines, and out's header changes with every label.
	out := b.Outs[w]
	from := len(out)
	st := Tree(g, h, s, root, probe, uint32(bound), func(v int, d uint32) { out = append(out, Emitted{uint32(v), d}) })
	b.Outs[w] = out
	b.Spans[i] = Span{int32(w), from, len(out)}
	return st
}

// side is one orientation of a shared-memory run: its trees run over g,
// hash the root's labels in root, and probe — and at every commit
// extend — into.
type side struct {
	g          *graph.Graph
	root, into *label.Index
	Batch
}

// Run executes shared-memory PLaNT. Roots are taken in rank order, batch by
// batch (BatchBounds). The trees of a batch are independent, so workers
// split them dynamically; they prune against a table holding the complete
// labels of every earlier batch and emit into their own buffers. At the
// barrier the batch's labels are appended to the table (commit); nothing
// else ever writes the table, so it needs no lock, and after the last batch
// it is the index. The output is the CHL — PLaNT needs no cleaning.
func Run(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	table := label.NewIndex(g.NumVertices(), g.WeightUnitExp())
	return table, run("PLaNT", opts, &side{g: g, root: table, into: table})
}

// RunDirected executes PLaNT on a directed graph, producing the directed
// CHL as forward/backward label sets (footnote 1 of the paper). Every root
// of a batch plants two trees: one over G whose labels (h, d(h→v)) go to
// the backward sets Lin(v), and one over Gᵀ whose labels (h, d(u→h)) go to
// the forward sets Lout(u). Both are committed at the batch's one barrier,
// so below the bound each table is complete, and the package doc's argument
// holds per orientation: the maximum-rank vertex of all shortest h→v paths
// is a hub of both Lout(h) and Lin(v).
func RunDirected(g *graph.Graph, opts Options) (*label.DirectedIndex, *metrics.Build) {
	n := g.NumVertices()
	lout, lin := label.NewIndex(n, g.WeightUnitExp()), label.NewIndex(n, g.WeightUnitExp())
	m := run("PLaNT-directed", opts, &side{g: g, root: lout, into: lin}, &side{g: g.Transpose(), root: lin, into: lout})
	return &label.DirectedIndex{Forward: lout, Backward: lin}, m
}

// run plants every root once per side, batch by batch, and commits each
// batch into every side's table at one barrier.
func run(algorithm string, opts Options, sides ...*side) *metrics.Build {
	opts = opts.normalize()
	n := sides[0].g.NumVertices()
	m := &metrics.Build{Algorithm: algorithm, Workers: opts.Workers, Trees: int64(len(sides) * n)}
	if opts.RecordPerTree {
		m.LabelsPerTree = make([]int64, n)
		m.ExploredPerTree = make([]int64, n)
	}
	start := time.Now()
	scr := NewScratches(opts.Workers, n)
	stats := make([]ptree.Stats, opts.Workers)
	bounds := BatchBounds(n, opts.Eta)
	for _, sd := range sides {
		sd.Outs = make([][]Emitted, opts.Workers)
	}

	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		for _, sd := range sides {
			sd.Spans = slices.Grow(sd.Spans[:0], hi-lo)[:hi-lo]
			for w := range sd.Outs {
				sd.Outs[w] = sd.Outs[w][:0]
			}
		}
		ptree.ParallelFor(opts.Workers, hi-lo, func(w, i int) {
			var st ptree.Stats
			for _, sd := range sides {
				st.Add(sd.Plant(sd.g, sd.root, sd.into, lo, scr[w], w, i, lo+i))
			}
			stats[w].Add(st)
			if opts.RecordPerTree {
				m.LabelsPerTree[lo+i] = st.Labels
				m.ExploredPerTree[lo+i] = st.Explored
			}
		})
		for _, sd := range sides {
			Commit(sd.into, opts.Workers, lo, sd.Spans, sd.Outs)
		}
	}

	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.Fold(ptree.Sum(stats))
	m.Labels = m.LabelsGenerated
	m.Synchronizations = int64(len(bounds) - 1)
	return m
}

// Commit appends the finished trees of roots lo, lo+1, … to the table:
// spans[i] locates the labels of root lo+i in outs, which is only read. The
// labelled vertices are split into one contiguous range per worker; every
// worker walks all the trees in rank order — which keeps each label set
// sorted — and takes the labels of its own range, so no two workers touch
// the same set.
func Commit(table *label.Index, workers, lo int, spans []Span, outs [][]Emitted) {
	n := table.NumVertices()
	ptree.ParallelFor(workers, workers, func(_, p int) {
		from, to := uint32(p*n/workers), uint32((p+1)*n/workers)
		for i, sp := range spans {
			hub := uint32(lo + i)
			for _, e := range outs[sp.W][sp.Lo:sp.Hi] {
				if from <= e.V && e.V < to { // hubs ascend: a plain append, not Index.Append's search
					table.SetLabels(int(e.V), append(table.Labels(int(e.V)), label.Pack(hub, e.Dist)))
				}
			}
		}
	})
}
