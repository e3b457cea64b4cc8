package dist

import (
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
)

// Hybrid runs the paper's Hybrid algorithm (§5.3): PLaNT the high-ranked
// trees — where unpruned traversal is cheap relative to the labels it
// emits — while monitoring the per-tree Ψ ratio (vertices explored per
// label generated); as soon as a tree's Ψ exceeds PsiThreshold, gather the
// PLaNTed labels into a replicated global table and finish the long tail
// of roots under DGLL, whose pruning makes the cheap trees cheaper still.
// Output: the CHL, identical at every q.
func Hybrid(g *graph.Graph, o Options) (*Result, error) {
	o = o.normalize()
	n := guard(g)
	m := &metrics.Build{Algorithm: "Hybrid", Workers: o.WorkersPerNode, Nodes: o.Nodes, Trees: int64(n)}
	if o.RecordPerTree {
		m.LabelsPerTree = make([]int64, n)
		m.ExploredPerTree = make([]int64, n)
	}
	eta := o.eta(DefaultEta, n)
	bounds := schedule(0, n, o.Beta, o.Supersteps)
	// Switch votes are taken once per batch of trees; the batch size only
	// trades monitoring granularity against collective rounds.
	batchSize := 4 * o.Nodes * o.WorkersPerNode
	if batchSize < 8 {
		batchSize = 8
	}

	cl := cluster.New(o.Nodes)
	counters := make([]perNodeCounters, o.Nodes)
	rootOwner := make([]int32, n)
	perNodeSets := make([][]label.Set, o.Nodes)
	var finalSets []label.Set
	var common *label.Index
	plantEnd, switchedAt := n, int64(-1)
	pureplant, oom := false, false

	start := time.Now()
	st := cl.Run(func(nd *cluster.Node) {
		c := &counters[nd.Rank()]
		global := make([]label.Set, n)
		scr := plant.NewScratches(o.WorkersPerNode, n)
		com, myCommon := plantPhase(nd, g, global, 0, eta, scr, rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)

		store := label.NewConcurrentStore(n)
		cur, sw := eta, int64(math.MaxInt64)
		for cur < n {
			end := cur + batchSize
			if end > n {
				end = n
			}
			stats := plantRoots(nd, g, store, com, uint32(eta), cur, end, scr,
				rootOwner, m.LabelsPerTree, m.ExploredPerTree, c)
			myBad := int64(math.MaxInt64)
			for _, ts := range stats {
				if ts.Psi() > o.PsiThreshold && int64(ts.root) < myBad {
					myBad = int64(ts.root)
				}
			}
			bad := allReduceMin0(nd, myBad)
			cur = end
			if bad < math.MaxInt64 {
				sw = bad
				break
			}
		}

		mine := drainSorted(store)
		mergeInto(mine, myCommon)

		if sw == math.MaxInt64 {
			// Ψ never tripped: the run is pure PLaNT, labels stay
			// partitioned.
			perNodeSets[nd.Rank()] = mine
			var commonBytes int64
			if com != nil {
				commonBytes = com.TotalLabels() * label.Bytes
			}
			c.storedBytes = totalLabels(mine)*label.Bytes + commonBytes
			if nd.Rank() == 0 {
				common = com
				pureplant = true
			}
			return
		}

		// Switch: replicate the PLaNTed labels (the global table DGLL's
		// pruning and cleaning correctness depend on), then run the
		// remaining roots on the same absolute superstep grid.
		batch := batchOf(mine)
		mergeInto(global, mergeBatches(n, nd.AllGather(batch, batch.count*label.Bytes)))
		if !dgllSupersteps(nd, g, global, clip(bounds, cur, n), o, true, rootOwner, c) {
			if nd.Rank() == 0 {
				oom = true
			}
			return
		}
		if nd.Rank() == 0 {
			finalSets = global
			common = com
			plantEnd = cur
			switchedAt = sw
		}
	})
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.BytesSent = st.BytesSent
	m.MessagesSent = st.MessagesSent
	m.Synchronizations = st.Barriers
	fold(m, counters)
	if oom {
		return nil, ErrOutOfMemory
	}
	if o.MemoryLimitBytes > 0 && m.MaxNodeBytes > o.MemoryLimitBytes {
		return nil, ErrOutOfMemory
	}
	m.SwitchedAtTree = switchedAt
	m.PlantTrees = int64(plantEnd)
	if pureplant {
		ix, perNode := assemblePartitioned(n, perNodeSets)
		m.Labels = ix.TotalLabels()
		return &Result{Index: ix, PerNode: perNode, Common: common, Metrics: m}, nil
	}
	ix := label.FromSets(finalSets)
	m.Labels = ix.TotalLabels()
	return &Result{Index: ix, PerNode: assemble(ix, rootOwner, o.Nodes), Common: common, Metrics: m}, nil
}
