package chl

import (
	"io"
	"os"
	"strings"

	"repro/internal/delta"
	"repro/internal/graph"
)

// Graph is a weighted graph in compressed sparse row form. Edge weights
// must be strictly positive. Construct one with NewGraphBuilder, a
// generator, or a reader below.
type Graph = graph.Graph

// GraphBuilder accumulates edges into an immutable Graph.
type GraphBuilder = graph.Builder

// Infinity is the distance reported for unreachable vertex pairs.
const Infinity = graph.Infinity

// NewGraphBuilder returns a builder for a graph with n vertices.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// GenerateRoadGrid builds a road-network-like lattice graph (high diameter,
// low tree-width): the synthetic twin of the paper's DIMACS road datasets.
func GenerateRoadGrid(rows, cols int, seed int64) *Graph {
	return graph.RoadGrid(rows, cols, seed)
}

// GenerateScaleFree builds a Barabási–Albert scale-free graph with uniform
// [1, √n) weights (§7.1.1): the synthetic twin of the paper's social and
// web datasets.
func GenerateScaleFree(n, edgesPerVertex int, seed int64) *Graph {
	return graph.BarabasiAlbert(n, edgesPerVertex, seed)
}

// GenerateRandom builds an Erdős–Rényi-style random graph with m undirected
// edges and integer weights in [1, maxWeight].
func GenerateRandom(n, m, maxWeight int, seed int64) *Graph {
	return graph.ErdosRenyi(n, m, maxWeight, seed)
}

// GenerateRandomDirected builds a random directed graph.
func GenerateRandomDirected(n, m, maxWeight int, seed int64) *Graph {
	return graph.RandomDirected(n, m, maxWeight, seed)
}

// GenerateDataset builds one of the named synthetic datasets used by the
// experiment harness ("CAL", "SKIT", ... — see DatasetNames). scale
// multiplies the baseline size; 1 targets seconds of preprocessing.
func GenerateDataset(name string, scale float64, seed int64) (*Graph, error) {
	return graph.GenerateByName(name, scale, seed)
}

// DatasetNames lists the synthetic dataset names, in the order of the
// paper's Table 2.
func DatasetNames() []string { return graph.DatasetNames() }

// ReadDIMACS parses a DIMACS shortest-path (.gr) graph.
func ReadDIMACS(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadDIMACS(r, directed)
}

// ReadGraphFile reads a graph from disk by its extension: DIMACS for a
// .gr file, a 0-indexed edge list (ReadEdgeList) otherwise. The command
// line tools read every -graph file through it.
func ReadGraphFile(path string, directed bool) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".gr") {
		return graph.ReadDIMACS(f, directed)
	}
	return graph.ReadEdgeList(f, directed)
}

// WriteDIMACS writes a graph in DIMACS .gr format.
func WriteDIMACS(w io.Writer, g *Graph) error { return graph.WriteDIMACS(w, g) }

// ReadEdgeList parses a whitespace "u v [w]" edge list (0-indexed; '#'/'%'
// comments).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// WriteEdgeList writes a graph as a 0-indexed edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// EdgeOp is one edge operation in a patch log: insert (add u v w),
// delete (del u v), or reweight (set u v w). See EdgeOpAdd/Del/Set and
// ParsePatchLog for the text format the /update endpoint accepts.
type EdgeOp = delta.Op

// Edge-operation kinds for constructing EdgeOps programmatically.
const (
	EdgeOpAdd = delta.OpAdd
	EdgeOpDel = delta.OpDel
	EdgeOpSet = delta.OpSet
)

// ParsePatchLog parses the text patch-log format: one op per line —
// "add u v w", "del u v", "set u v w" — blank lines and '#' comments
// ignored. This is the body format of POST /update and the on-disk
// format of the update journal.
func ParsePatchLog(b []byte) ([]EdgeOp, error) { return delta.ParsePatchLog(b) }

// FormatPatchLog renders ops in the text format ParsePatchLog reads.
func FormatPatchLog(ops []EdgeOp) []byte { return delta.FormatPatchLog(ops) }

// ApplyPatch applies a patch log to a graph and returns the patched
// graph. Ops are validated in order: add requires the edge absent,
// del/set require it present. Compaction folds an overlay into a fresh
// index by rebuilding over exactly this graph.
func ApplyPatch(g *Graph, ops []EdgeOp) (*Graph, error) { return delta.ApplyPatch(g, ops) }

// LargestComponent returns the subgraph induced by the largest (weakly)
// connected component and the mapping from new ids to the originals.
func LargestComponent(g *Graph) (*Graph, []int) { return graph.LargestComponent(g) }

// IsConnected reports whether g is (weakly) connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }
