package pll

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
	"repro/internal/vheap"
)

// DongHybrid implements the inter-/intra-tree hybrid of Dong et al. [9]
// (§3 of the paper): the initial, very large SPTs are built one at a time
// with an intra-tree parallel pruned Bellman-Ford (all workers cooperate on
// one tree, roots strictly in rank order), and once trees shrink the
// algorithm switches to inter-tree parallelism (concurrent pruned Dijkstras
// à la SparaPLL). The paper notes two facts about it that this
// implementation reproduces and the tests assert:
//
//   - its labeling keeps "average label size close to that of CHL" but is
//     not exactly canonical (the inter-tree phase races), and — unlike
//     paraPLL — it CAN be repaired: "it can be used to clean the output of
//     inter-tree parallel algorithm by Dong et al" (§4.1). We make that
//     precise by running the inter-tree phase with rank queries, so the
//     output respects R and lcc.Clean turns it into the CHL.
//   - Bellman-Ford's work explodes on high-diameter graphs ("fails to
//     accelerate high-diameter graphs, such as road networks, due to the
//     high complexity of Bellman Ford"), visible in the EdgesRelaxed
//     counter.
//
// bfTrees fixes how many initial trees use Bellman-Ford; zero uses the
// paper's observation that only the biggest (top-ranked) trees benefit and
// defaults to 32.
func DongHybrid(g *graph.Graph, opts Options, bfTrees int) (*label.Index, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	if bfTrees <= 0 {
		bfTrees = 32
	}
	if bfTrees > n {
		bfTrees = n
	}
	m := &metrics.Build{Algorithm: "DongHybrid", Workers: opts.Workers}
	store := label.NewConcurrentStore(n)
	start := time.Now()

	// ---- Phase 1: intra-tree parallel pruned Bellman-Ford, sequential
	// root order (exactly the PLL prefix, so this phase is canonical).
	bf := newBellmanFord(n, opts.Workers)
	for h := 0; h < bfTrees; h++ {
		bf.tree(g, store, h, m)
	}

	// ---- Phase 2: inter-tree parallel pruned Dijkstras with rank
	// queries (concurrent roots in rank order) — the LCC-I regime.
	m.Fold(ptree.LiveForest(g, store, bfTrees, opts.Workers, true))

	ix := store.Seal()
	m.ConstructTime = time.Since(start)
	m.TotalTime = m.ConstructTime
	m.Trees = int64(n)
	m.Labels = ix.TotalLabels()
	m.LabelsGenerated = m.Labels
	return ix, m
}

// bellmanFord holds the frontier-parallel Bellman-Ford state of phase 1.
type bellmanFord struct {
	n       int
	workers int
	dist    []float64
	dirty   []int32
	active  []int32
	nextAct []int32
	inNext  []bool
	hd      *label.HashDist
	heapBuf *vheap.Heap // used only to order label emission by distance
}

func newBellmanFord(n, workers int) *bellmanFord {
	bf := &bellmanFord{
		n: n, workers: workers,
		dist:    make([]float64, n),
		inNext:  make([]bool, n),
		hd:      label.NewHashDist(n),
		heapBuf: vheap.New(n),
	}
	for i := range bf.dist {
		bf.dist[i] = graph.Infinity
	}
	return bf
}

// tree builds SPT_h with round-synchronous parallel Bellman-Ford, then
// filters labels with distance queries. Labels are exact (full SPT, no
// exploration pruning), so this phase emits precisely the PLL labels.
func (bf *bellmanFord) tree(g *graph.Graph, store *label.ConcurrentStore, h int, m *metrics.Build) {
	// reset
	for _, v := range bf.dirty {
		bf.dist[v] = graph.Infinity
	}
	bf.dirty = bf.dirty[:0]
	bf.dist[h] = 0
	bf.dirty = append(bf.dirty, int32(h))
	bf.active = append(bf.active[:0], int32(h))

	var mu sync.Mutex
	for len(bf.active) > 0 {
		bf.nextAct = bf.nextAct[:0]
		// Parallel relaxation of the frontier in chunks.
		chunk := (len(bf.active) + bf.workers - 1) / bf.workers
		var wg sync.WaitGroup
		for t := 0; t < bf.workers; t++ {
			lo := t * chunk
			if lo >= len(bf.active) {
				break
			}
			hi := lo + chunk
			if hi > len(bf.active) {
				hi = len(bf.active)
			}
			wg.Add(1)
			go func(part []int32) {
				defer wg.Done()
				var localNext []int32
				var localDirty []int32
				var relaxed int64
				for _, vv := range part {
					v := int(vv)
					mu.Lock()
					dv := bf.dist[v]
					mu.Unlock()
					heads, wts := g.Neighbors(v)
					for i, uu := range heads {
						u := int(uu)
						nd := dv + wts[i]
						relaxed++
						// Benign race on dist: Bellman-Ford tolerates
						// stale reads (monotone improvements re-enqueue),
						// but we serialize the update to keep -race clean.
						mu.Lock()
						if nd < bf.dist[u] {
							if bf.dist[u] == graph.Infinity {
								localDirty = append(localDirty, int32(uu))
							}
							bf.dist[u] = nd
							if !bf.inNext[u] {
								bf.inNext[u] = true
								localNext = append(localNext, int32(uu))
							}
						}
						mu.Unlock()
					}
				}
				mu.Lock()
				bf.nextAct = append(bf.nextAct, localNext...)
				bf.dirty = append(bf.dirty, localDirty...)
				atomic.AddInt64(&m.EdgesRelaxed, relaxed)
				mu.Unlock()
			}(bf.active[lo:hi])
		}
		wg.Wait()
		for _, u := range bf.nextAct {
			bf.inNext[u] = false
		}
		bf.active, bf.nextAct = bf.nextAct, bf.active
		m.VerticesExplored += int64(len(bf.active))
	}

	// Label filter: in rank order of distance (ascending), apply rank +
	// distance queries. Ascending distance guarantees witness labels from
	// this same tree are never needed (PLL never uses same-tree labels).
	bf.hd.Reset()
	store.AddTo(bf.hd, h)
	bf.heapBuf.Clear()
	for _, vv := range bf.dirty {
		bf.heapBuf.Push(int(vv), bf.dist[vv])
	}
	for !bf.heapBuf.Empty() {
		v, dv := bf.heapBuf.Pop()
		if v < h {
			m.RankPrunes++
			continue
		}
		if v != h {
			m.DistanceQueries++
			if store.QueryAgainst(bf.hd, v, dv) {
				m.DistPrunes++
				continue
			}
		}
		store.Append(v, label.L{Hub: uint32(h), Dist: dv})
	}
	m.Trees++
}
