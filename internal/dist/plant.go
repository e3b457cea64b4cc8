package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
)

// rootStat is one PLaNTed tree's Ψ inputs, for Hybrid's switch monitor.
type rootStat struct {
	root     int
	explored int64
	labels   int64
}

func (r rootStat) psi() float64 {
	if r.labels == 0 {
		return float64(r.explored)
	}
	return float64(r.explored) / float64(r.labels)
}

// plantRoots builds the PLaNTed trees this node owns in [lo, hi)
// (round-robin) into the node-local store, pruning against the Common
// Label Table when common is non-nil. It returns per-root stats for the
// roots this node grew.
func plantRoots(nd *cluster.Node, g *graph.Graph, store *label.ConcurrentStore,
	common *label.Index, bound uint32, lo, hi, wpn int,
	rootOwner []int32, perTreeLabels, perTreeExplored []int64, c *perNodeCounters) []rootStat {
	q, r := nd.Size(), nd.Rank()
	var mine []int
	for h := lo + r; h < hi; h += q {
		rootOwner[h] = int32(r)
		mine = append(mine, h)
	}
	stats := make([]rootStat, len(mine))
	if len(mine) == 0 {
		return stats
	}
	n := g.NumVertices()
	var next int64 = -1
	var wg sync.WaitGroup
	workers := wpn
	if workers > len(mine) {
		workers = len(mine)
	}
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := plant.NewScratch(n)
			var sum plant.TreeStats
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(mine) {
					break
				}
				h := mine[i]
				ts := plant.Tree(g, h, s, common, bound, func(v int, d float64) {
					store.Append(v, label.L{Hub: uint32(h), Dist: d})
				})
				stats[i] = rootStat{root: h, explored: ts.Explored, labels: ts.Labels}
				sum.Add(ts)
				if perTreeLabels != nil {
					perTreeLabels[h] = ts.Labels
					perTreeExplored[h] = ts.Explored
				}
			}
			atomic.AddInt64(&c.explored, sum.Explored)
			atomic.AddInt64(&c.relaxed, sum.Relaxed)
			atomic.AddInt64(&c.generated, sum.Labels)
			atomic.AddInt64(&c.dqs, sum.Queries)
			atomic.AddInt64(&c.dprunes, sum.DistPruned)
			atomic.AddInt64(&c.rprunes, sum.AncPruned)
		}()
	}
	wg.Wait()
	return stats
}

// plantPhase grows the trees of the top-ranked roots [lo, hi) unpruned,
// allgathers their (canonical, complete) labels — the one label broadcast
// PLaNT ever pays — merges them into the node's replicated global table,
// and returns the resulting Common Label Table plus this node's own
// contribution (its share of the label partition).
func plantPhase(nd *cluster.Node, g *graph.Graph, global []label.Set, lo, hi int,
	o Options, rootOwner []int32, perTreeLabels, perTreeExplored []int64,
	c *perNodeCounters) (*label.Index, []label.Set) {
	n := g.NumVertices()
	if hi <= lo {
		return nil, make([]label.Set, n)
	}
	store := label.NewConcurrentStore(n)
	plantRoots(nd, g, store, nil, 0, lo, hi, o.WorkersPerNode, rootOwner, perTreeLabels, perTreeExplored, c)
	mine := store.Drain()
	for _, s := range mine {
		s.Sort()
	}
	batch := batchOf(mine)
	merged := mergeBatches(n, nd.AllGather(batch, batch.count*label.Bytes))
	for v, s := range merged {
		if len(s) > 0 {
			global[v] = global[v].Merge(s)
		}
	}
	return label.FromSets(merged), mine
}

// allReduceMin0 is an AllReduce MIN metered as control traffic (zero
// payload bytes): Hybrid's switch votes are a few bytes against the
// megabytes of label collectives.
func allReduceMin0(nd *cluster.Node, x int64) int64 {
	vals := nd.AllGather(x, 0)
	min := vals[0].(int64)
	for _, v := range vals[1:] {
		if y := v.(int64); y < min {
			min = y
		}
	}
	return min
}

// PLaNT runs distributed PLaNT (§5.2): every node grows the trees of its
// round-robin root share with zero label traffic; with Eta ≥ 0 (default
// DefaultEta) the top-η trees are grown first and broadcast once as the
// Common Label Table (§5.3) to prune the rest. Labels stay partitioned by
// growing node; Result.Index is their union — the CHL.
func PLaNT(g *graph.Graph, o Options) (*Result, error) {
	o = o.normalize()
	n := guard(g)
	m := &metrics.Build{Algorithm: "PLaNT", Workers: o.WorkersPerNode, Nodes: o.Nodes, Trees: int64(n)}
	if o.RecordPerTree {
		m.LabelsPerTree = make([]int64, n)
		m.ExploredPerTree = make([]int64, n)
	}
	eta := o.eta(DefaultEta, n)

	cl := cluster.New(o.Nodes)
	counters := make([]perNodeCounters, o.Nodes)
	rootOwner := make([]int32, n)
	perNodeSets := make([][]label.Set, o.Nodes)
	var common *label.Index

	//chlvet:allow clockcheck -- construction/experiment wall time is the reported measurement itself, not control flow; a fake clock would report fake results
	start := time.Now()
	st := cl.Run(func(nd *cluster.Node) {
		c := &counters[nd.Rank()]
		global := make([]label.Set, n)
		com, myCommon := plantPhase(nd, g, global, 0, eta, o, rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)
		store := label.NewConcurrentStore(n)
		plantRoots(nd, g, store, com, uint32(eta), eta, n, o.WorkersPerNode, rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)
		mine := store.Drain()
		for _, s := range mine {
			s.Sort()
		}
		for v, s := range myCommon {
			if len(s) > 0 {
				mine[v] = mine[v].Merge(s)
			}
		}
		perNodeSets[nd.Rank()] = mine
		var commonBytes int64
		if com != nil {
			commonBytes = com.TotalLabels() * label.Bytes
		}
		c.storedBytes = totalLabels(mine)*label.Bytes + commonBytes
		if nd.Rank() == 0 {
			common = com
		}
	})
	//chlvet:allow clockcheck -- construction/experiment wall time is the reported measurement itself, not control flow; a fake clock would report fake results
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.BytesSent = st.BytesSent
	m.MessagesSent = st.MessagesSent
	m.Synchronizations = st.Barriers
	fold(m, counters)
	if o.MemoryLimitBytes > 0 && m.MaxNodeBytes > o.MemoryLimitBytes {
		return nil, ErrOutOfMemory
	}
	ix, perNode := assemblePartitioned(n, perNodeSets)
	m.Labels = ix.TotalLabels()
	m.LabelsGenerated = m.Labels
	return &Result{Index: ix, PerNode: perNode, Common: common, Metrics: m}, nil
}

// assemblePartitioned unions per-node label partitions into a full index
// (hubs are disjoint across nodes, so this is a pure sorted merge).
func assemblePartitioned(n int, perNodeSets [][]label.Set) (*label.Index, []*label.Index) {
	full := make([]label.Set, n)
	perNode := make([]*label.Index, len(perNodeSets))
	for r, sets := range perNodeSets {
		for v, s := range sets {
			if len(s) > 0 {
				full[v] = full[v].Merge(s)
			}
		}
		perNode[r] = label.FromSets(sets)
	}
	return label.FromSets(full), perNode
}
