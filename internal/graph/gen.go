package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file contains the synthetic dataset generators. The paper evaluates
// on two topology families whose behaviour under hub labeling is radically
// different (§7.3 "Graph Topologies"):
//
//   - road networks: high diameter, near-uniform low degree, low tree-width;
//     betweenness ranking. PLaNT alone is both scalable and efficient here.
//   - scale-free networks: low diameter, power-law degree, dense core /
//     sparse fringe; degree ranking. PLaNT pays a large exploration overhead
//     on the fringe, so the Hybrid algorithm wins.
//
// RoadGrid and BarabasiAlbert reproduce those regimes (internal/exp.Suite is
// the dataset substitution table).

// RoadGrid generates a road-network-like graph: a rows×cols lattice where
// every vertex connects to its right and down neighbours, a fraction of
// cells gain a diagonal "shortcut" street, and a small number of random long
// "highway" edges are added. Weights are integers drawn uniformly from
// [minW, maxW], mimicking travel times. The result is connected, has high
// diameter and low tree-width — the regime where the DIMACS road networks
// (CAL, EAS, CTR, USA) live.
func RoadGrid(rows, cols int, seed int64) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: RoadGrid needs positive dimensions")
	}
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	b := NewBuilder(n, false)
	const minW, maxW = 1, 10
	weight := func() float64 { return float64(minW + rng.Intn(maxW-minW+1)) }
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1), weight())
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c), weight())
			}
			// ~20% of cells get a diagonal street, breaking the pure
			// lattice structure the way real road grids do.
			if c+1 < cols && r+1 < rows && rng.Float64() < 0.20 {
				b.AddEdge(id(r, c), id(r+1, c+1), weight())
			}
		}
	}
	// A few long-range "highways": cheap per unit distance, rare.
	highways := n / 200
	for i := 0; i < highways; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, float64(maxW+rng.Intn(4*maxW)))
		}
	}
	return b.MustFinish()
}

// BarabasiAlbert generates a scale-free graph with n vertices by preferential
// attachment: each new vertex attaches k edges to existing vertices chosen
// proportionally to their degree. Edge weights are integers drawn uniformly
// from [1, √n) as in §7.1.1 of the paper ("scale-free networks do not have
// edge weights from the download sources... we assign edge weights between
// [1,√n) uniformly at random"). The result has the dense-core/sparse-fringe
// structure of SKIT, AUT, YTB, ACT, BDU, POK and LIJ.
func BarabasiAlbert(n, k int, seed int64) *Graph {
	if n < 1 || k < 1 {
		panic("graph: BarabasiAlbert needs n ≥ 1, k ≥ 1")
	}
	if k >= n {
		k = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	maxW := int(math.Sqrt(float64(n)))
	if maxW < 2 {
		maxW = 2
	}
	weight := func() float64 { return float64(1 + rng.Intn(maxW-1)) }

	b := NewBuilder(n, false)
	// targets holds one entry per edge endpoint; sampling uniformly from it
	// implements preferential attachment in O(1).
	targets := make([]int, 0, 2*n*k)
	// Seed clique over the first k+1 vertices.
	seedSize := k + 1
	if seedSize > n {
		seedSize = n
	}
	for u := 0; u < seedSize; u++ {
		for v := u + 1; v < seedSize; v++ {
			b.AddEdge(u, v, weight())
			targets = append(targets, u, v)
		}
	}
	chosen := make(map[int]bool, k)
	order := make([]int, 0, k)
	for u := seedSize; u < n; u++ {
		clear(chosen)
		order = order[:0]
		for len(order) < k {
			var v int
			if len(targets) == 0 {
				v = rng.Intn(u)
			} else {
				v = targets[rng.Intn(len(targets))]
			}
			if v != u && !chosen[v] {
				chosen[v] = true
				order = append(order, v) // deterministic insertion order
			}
		}
		for _, v := range order {
			b.AddEdge(u, v, weight())
			targets = append(targets, u, v)
		}
	}
	return b.MustFinish()
}

// ErdosRenyi generates a G(n, m) random graph with m undirected edges and
// integer weights in [1, maxW]. Used by the property-based tests as a source
// of unstructured topologies (possibly disconnected).
func ErdosRenyi(n, m, maxW int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if maxW < 1 {
		maxW = 1
	}
	b := NewBuilder(n, false)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, float64(1+rng.Intn(maxW)))
		}
	}
	return b.MustFinish()
}

// RandomDirected generates a directed G(n, m) random graph with integer
// weights in [1, maxW]. Arcs are independent, so reachability is typically
// asymmetric — used to exercise the forward/backward label machinery.
func RandomDirected(n, m, maxW int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if maxW < 1 {
		maxW = 1
	}
	b := NewBuilder(n, true)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(u, v, float64(1+rng.Intn(maxW)))
		}
	}
	return b.MustFinish()
}

// SmallWorld generates a Watts–Strogatz style ring lattice with n vertices,
// each joined to its k nearest neighbours on each side, with a fraction p of
// edges rewired randomly. Weights are integers in [1, 10]. It sits between
// the road and scale-free regimes and is used in tests and ablations.
func SmallWorld(n, k int, p float64, seed int64) *Graph {
	if n < 3 || k < 1 {
		panic("graph: SmallWorld needs n ≥ 3, k ≥ 1")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			v := (u + j) % n
			if rng.Float64() < p {
				for {
					v = rng.Intn(n)
					if v != u {
						break
					}
				}
			}
			b.AddEdge(u, v, float64(1+rng.Intn(10)))
		}
	}
	return b.MustFinish()
}

// Path returns the path graph 0–1–…–(n-1) with the given uniform weight.
func Path(n int, w float64) *Graph {
	b := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		b.AddEdge(u, u+1, w)
	}
	return b.MustFinish()
}

// Cycle returns the cycle graph on n vertices with the given uniform weight.
func Cycle(n int, w float64) *Graph {
	if n < 3 {
		panic("graph: Cycle needs n ≥ 3")
	}
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		b.AddEdge(u, (u+1)%n, w)
	}
	return b.MustFinish()
}

// Star returns the star graph with vertex 0 at the centre.
func Star(n int, w float64) *Graph {
	b := NewBuilder(n, false)
	for u := 1; u < n; u++ {
		b.AddEdge(0, u, w)
	}
	return b.MustFinish()
}

// Complete returns the complete graph K_n with uniform weight w.
func Complete(n int, w float64) *Graph {
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, w)
		}
	}
	return b.MustFinish()
}

// Figure1 returns the 5-vertex weighted graph of Figure 1 in the paper,
// with vertices v1..v5 mapped to ids 0..4 (so that id order equals rank
// order: R(v1) > R(v2) > R(v3) > R(v4) > R(v5)). It is the golden fixture
// for the step-by-step PLL and PLaNT tests.
//
//	v1–v2: 3   v1–v4: 5   v1–v5: ...   (see paper Fig. 1a)
func Figure1() *Graph {
	b := NewBuilder(5, false)
	// Edges as drawn in Figure 1a: weights 5 (v1–v4), 3 (v1–v2), 10 (v2–v3),
	// 2 (v3–v5 is 2? no — v3–v5 edge weight 2), 4 (v4–v5), 14 (v2–v5).
	// From the traces in Fig. 1b/1c: d(v2,v1)=3, d(v2,v3)=10, d(v2,v5)=12
	// via v1–v4–v5 (3+5+4) and also =12 via v3 (10+2), d(v2,v4)=8 (3+5).
	b.AddEdge(0, 1, 3)  // v1–v2
	b.AddEdge(0, 3, 5)  // v1–v4
	b.AddEdge(1, 2, 10) // v2–v3
	b.AddEdge(1, 4, 14) // v2–v5
	b.AddEdge(2, 4, 2)  // v3–v5
	b.AddEdge(3, 4, 4)  // v4–v5
	return b.MustFinish()
}

// GenerateByName builds one of the named synthetic datasets used by the
// experiment harness and the CLI tools. Names are case-sensitive. The scale
// parameter multiplies the baseline vertex count (scale=1 targets seconds of
// preprocessing on a laptop).
func GenerateByName(name string, scale float64, seed int64) (*Graph, error) {
	if scale <= 0 {
		scale = 1
	}
	s := func(base int) int {
		v := int(float64(base) * scale)
		if v < 16 {
			v = 16
		}
		return v
	}
	switch name {
	case "road-small", "CAL":
		side := int(math.Sqrt(float64(s(4096))))
		return RoadGrid(side, side, seed), nil
	case "road-medium", "EAS":
		side := int(math.Sqrt(float64(s(9216))))
		return RoadGrid(side, side, seed), nil
	case "road-large", "CTR":
		side := int(math.Sqrt(float64(s(16384))))
		return RoadGrid(side, side, seed), nil
	case "road-xlarge", "USA":
		side := int(math.Sqrt(float64(s(25600))))
		return RoadGrid(side, side, seed), nil
	case "scalefree-small", "SKIT":
		return BarabasiAlbert(s(2048), 3, seed), nil
	case "scalefree-medium", "AUT":
		return BarabasiAlbert(s(4096), 4, seed), nil
	case "scalefree-large", "YTB":
		return BarabasiAlbert(s(8192), 3, seed), nil
	case "scalefree-dense", "ACT":
		return BarabasiAlbert(s(3072), 12, seed), nil
	case "scalefree-xlarge", "BDU":
		return BarabasiAlbert(s(12288), 4, seed), nil
	case "scalefree-huge", "POK":
		return BarabasiAlbert(s(16384), 6, seed), nil
	case "scalefree-max", "LIJ":
		return BarabasiAlbert(s(24576), 5, seed), nil
	case "web-directed", "WND":
		return RandomDirected(s(4096), s(4096)*5, 64, seed), nil
	case "smallworld":
		return SmallWorld(s(4096), 4, 0.1, seed), nil
	default:
		return nil, fmt.Errorf("graph: unknown dataset %q", name)
	}
}

// DatasetNames lists the canonical names accepted by GenerateByName, in the
// order the paper's tables present them.
func DatasetNames() []string {
	return []string{
		"CAL", "EAS", "CTR", "USA",
		"SKIT", "WND", "AUT", "YTB", "ACT", "BDU", "POK", "LIJ",
	}
}
