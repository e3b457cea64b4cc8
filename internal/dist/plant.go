package dist

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/ptree"
)

// rootStat is what one PLaNTed tree did — Hybrid's switch monitor reads
// its Ψ.
type rootStat struct {
	root int
	ptree.Stats
}

// plantRoots builds the PLaNTed trees this node owns in [lo, hi)
// (round-robin) into the node-local store, pruning against the Common
// Label Table when common is non-nil. It returns per-root stats for the
// roots this node grew.
func plantRoots(nd *cluster.Node, g *graph.Graph, store *label.ConcurrentStore,
	common *label.Index, bound uint32, lo, hi int, scr []*plant.Scratch,
	rootOwner []int32, perTreeLabels, perTreeExplored []int64, c *perNodeCounters) []rootStat {
	mine := myRoots(nd, lo, hi, rootOwner)
	stats := make([]rootStat, len(mine))
	ptree.ParallelFor(len(scr), len(mine), func(w, i int) {
		h := mine[i]
		ts := plant.Tree(g, h, scr[w], common, bound, func(v int, d float64) {
			store.Append(v, label.L{Hub: uint32(h), Dist: d})
		})
		stats[i] = rootStat{h, ts}
		if perTreeLabels != nil {
			perTreeLabels[h] = ts.Labels
			perTreeExplored[h] = ts.Explored
		}
	})
	for _, ts := range stats {
		c.Add(ts.Stats)
	}
	return stats
}

// plantPhase grows the trees of the top-ranked roots [lo, hi) unpruned,
// allgathers their (canonical, complete) labels — the one label broadcast
// PLaNT ever pays — merges them into the node's replicated global table,
// and returns the resulting Common Label Table plus this node's own
// contribution (its share of the label partition).
func plantPhase(nd *cluster.Node, g *graph.Graph, global []label.Set, lo, hi int,
	scr []*plant.Scratch, rootOwner []int32, perTreeLabels, perTreeExplored []int64,
	c *perNodeCounters) (*label.Index, []label.Set) {
	n := g.NumVertices()
	if hi <= lo {
		return nil, make([]label.Set, n)
	}
	store := label.NewConcurrentStore(n)
	plantRoots(nd, g, store, nil, 0, lo, hi, scr, rootOwner, perTreeLabels, perTreeExplored, c)
	mine := drainSorted(store)
	batch := batchOf(mine)
	merged := mergeBatches(n, nd.AllGather(batch, batch.count*label.Bytes))
	mergeInto(global, merged)
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

	start := time.Now()
	st := cl.Run(func(nd *cluster.Node) {
		c := &counters[nd.Rank()]
		global := make([]label.Set, n)
		scr := plant.NewScratches(o.WorkersPerNode, n)
		com, myCommon := plantPhase(nd, g, global, 0, eta, scr, rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)
		store := label.NewConcurrentStore(n)
		plantRoots(nd, g, store, com, uint32(eta), eta, n, scr, rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)
		mine := drainSorted(store)
		mergeInto(mine, myCommon)
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
		mergeInto(full, sets)
		perNode[r] = label.FromSets(sets)
	}
	return label.FromSets(full), perNode
}
