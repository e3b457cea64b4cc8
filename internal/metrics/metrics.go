// Package metrics defines the instrumentation record shared by every
// labeling algorithm in this repository. The experiment harness turns these
// counters into the tables and figures of the paper; they are also what
// makes the evaluation machine-independent: label counts, vertices explored,
// distance queries, communication volume and synchronization counts do not
// depend on core counts or clock speed.
package metrics

import (
	"fmt"
	"time"

	"repro/internal/ptree"
)

// Build captures everything one labeling run reports.
type Build struct {
	Algorithm string // "seqPLL", "SparaPLL", "LCC", "GLL", "PLaNT", ...
	Workers   int    // shared-memory threads (p)
	Nodes     int    // cluster nodes (q), 0 for shared-memory runs

	Trees           int64 // SPTs constructed
	Labels          int64 // labels in the final output
	LabelsGenerated int64 // labels generated before cleaning
	LabelsCleaned   int64 // redundant labels removed by cleaning

	VerticesExplored int64 // vertices settled across all SPTs
	EdgesRelaxed     int64
	DistanceQueries  int64 // pruning DQs during construction
	RankPrunes       int64 // prunes by rank query (PLaNT: by an ancestor above the Common Label Table's bound)
	DistPrunes       int64 // prunes by distance query
	CleanQueries     int64 // DQ_Clean evaluations
	CleanEntries     int64 // label entries touched by cleaning merge-joins

	ConstructTime time.Duration
	CleanTime     time.Duration
	TotalTime     time.Duration

	// LockAcquisitions counts per-vertex label-table lock operations when
	// profiling is enabled (the §4.2 two-table locking ablation).
	LockAcquisitions int64

	// Per-tree series, recorded only when pll.Options or plant.Options
	// request them (Figures 2 and 3). Index = root id in rank space.
	LabelsPerTree   []int64
	ExploredPerTree []int64

	// Distributed-only counters.
	BytesSent        int64 // total label/query traffic between nodes
	MessagesSent     int64
	Synchronizations int64 // barriers / collective rounds
	MaxNodeBytes     int64 // peak label storage on any single node
	MaxNodeExplored  int64 // per-node maximum of vertices explored
	MaxNodeQueries   int64 // per-node maximum of distance queries
	PlantTrees       int64 // trees built by PLaNT before a Hybrid switch
	SwitchedAtTree   int64 // tree index at which Hybrid switched to DGLL, -1 if never
}

// Fold adds what a worker's (or a whole pool's) trees and cleaning queries
// did to the record. It is the one path from ptree.Stats to a Build; Labels,
// Trees and the timers are the caller's to set.
func (b *Build) Fold(s ptree.Stats) {
	b.VerticesExplored += s.Explored
	b.EdgesRelaxed += s.Relaxed
	b.LabelsGenerated += s.Labels
	b.DistanceQueries += s.Queries
	b.RankPrunes += s.RankPruned
	b.DistPrunes += s.DistPruned
	b.CleanQueries += s.CleanQueries
	b.CleanEntries += s.CleanEntries
	b.LabelsCleaned += s.Cleaned
}

// Psi returns the overall Ψ ratio — vertices explored per label generated —
// the quantity Figure 3 plots per tree and the Hybrid algorithm thresholds
// on.
func (b *Build) Psi() float64 { return Psi(b.VerticesExplored, b.LabelsGenerated) }

// Psi is the Ψ ratio of any count of vertices explored and labels
// generated (a tree's, say). With no labels generated it reports explored.
func Psi(explored, labels int64) float64 {
	if labels == 0 {
		return float64(explored)
	}
	return float64(explored) / float64(labels)
}

// ALS returns the average label size given the vertex count.
func (b *Build) ALS(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(b.Labels) / float64(n)
}

// String summarises the record in one line (used by the CLIs).
func (b *Build) String() string {
	s := fmt.Sprintf("%s: trees=%d labels=%d explored=%d dq=%d time=%v",
		b.Algorithm, b.Trees, b.Labels, b.VerticesExplored, b.DistanceQueries, b.TotalTime.Round(time.Millisecond))
	if b.LabelsCleaned > 0 {
		s += fmt.Sprintf(" cleaned=%d", b.LabelsCleaned)
	}
	if b.Nodes > 0 {
		s += fmt.Sprintf(" nodes=%d bytes=%d syncs=%d", b.Nodes, b.BytesSent, b.Synchronizations)
	}
	return s
}

// ModeledSeconds converts the machine-independent counters into a modeled
// execution time for an idealized cluster, used to plot the *shape* of the
// strong-scaling Figure 8 on a single box. The model charges each node its
// own computation (explored vertices + distance queries at perVertexCost),
// latency per synchronization, and wire time per byte broadcast; the run
// time is the maximum over nodes of compute plus the shared communication
// cost. maxNodeExplored/maxNodeDQ are per-node maxima.
type CostModel struct {
	SecPerVertex float64 // cost of one priority-queue pop + relaxations
	SecPerQuery  float64 // cost of one pruning distance query
	SecPerSync   float64 // barrier / collective latency
	SecPerByte   float64 // broadcast bandwidth (inverse)
}

// DefaultCostModel reflects commodity-cluster constants: ~25ns per explored
// vertex, ~40ns per distance query, 20µs per synchronization, 1ns per wire
// byte (≈1 GB/s effective collective bandwidth).
func DefaultCostModel() CostModel {
	return CostModel{SecPerVertex: 25e-9, SecPerQuery: 40e-9, SecPerSync: 20e-6, SecPerByte: 1e-9}
}

// Modeled computes the modeled runtime in seconds.
func (cm CostModel) Modeled(maxNodeExplored, maxNodeDQ, syncs, bytes int64) float64 {
	return float64(maxNodeExplored)*cm.SecPerVertex +
		float64(maxNodeDQ)*cm.SecPerQuery +
		float64(syncs)*cm.SecPerSync +
		float64(bytes)*cm.SecPerByte
}
