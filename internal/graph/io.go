package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadDIMACS parses a graph in the 9th DIMACS Implementation Challenge
// shortest-path format — the format of the CAL/EAS/CTR/USA road networks the
// paper evaluates on:
//
//	c comment
//	p sp <n> <m>
//	a <u> <v> <w>     (1-indexed endpoints)
//
// The challenge files list each undirected edge as two arcs; pass
// directed=false to fold them back into undirected edges (duplicates are
// deduplicated by the CSR builder) or directed=true to keep arcs as-is.
func ReadDIMACS(r io.Reader, directed bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var b *Builder
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			f := strings.Fields(text)
			if len(f) != 4 || f[1] != "sp" {
				return nil, fmt.Errorf("graph: dimacs line %d: bad problem line %q", line, text)
			}
			n, err := strconv.Atoi(f[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad vertex count %q", line, f[2])
			}
			b = NewBuilder(n, directed)
		case 'a':
			if b == nil {
				return nil, fmt.Errorf("graph: dimacs line %d: arc before problem line", line)
			}
			f := strings.Fields(text)
			if len(f) != 4 {
				return nil, fmt.Errorf("graph: dimacs line %d: bad arc line %q", line, text)
			}
			u, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.Atoi(f[2])
			w, err3 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: dimacs line %d: unparseable arc %q", line, text)
			}
			b.AddEdge(u-1, v-1, w)
		default:
			return nil, fmt.Errorf("graph: dimacs line %d: unknown record %q", line, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: dimacs read: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: dimacs input has no problem line")
	}
	return b.Finish()
}

// WriteDIMACS writes g in DIMACS shortest-path format. Undirected edges are
// written as two arcs, matching the challenge files.
func WriteDIMACS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c generated by repro/internal/graph\n")
	fmt.Fprintf(bw, "p sp %d %d\n", g.NumVertices(), g.NumArcs())
	for u := 0; u < g.NumVertices(); u++ {
		heads, wts := g.Neighbors(u)
		for i, h := range heads {
			fmt.Fprintf(bw, "a %d %d %s\n", u+1, int(h)+1, formatWeight(g.FromUnits(uint64(wts[i]))))
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a whitespace-separated edge list "u v [w]" with
// 0-indexed endpoints; missing weights default to 1. Lines starting with
// '#' or '%' are comments (SNAP and KONECT conventions). The vertex count is
// 1 + the maximum endpoint seen.
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type arc struct {
		u, v int
		w    float64
	}
	var arcs []arc
	n := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 2 {
			return nil, fmt.Errorf("graph: edgelist line %d: need at least 2 fields", line)
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: edgelist line %d: bad endpoints %q", line, text)
		}
		w := 1.0
		if len(f) >= 3 {
			var err error
			w, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: edgelist line %d: bad weight %q", line, f[2])
			}
		}
		arcs = append(arcs, arc{u, v, w})
		if u >= n {
			n = u + 1
		}
		if v >= n {
			n = v + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: edgelist read: %w", err)
	}
	b := NewBuilder(n, directed)
	for _, a := range arcs {
		b.AddEdge(a.u, a.v, a.w)
	}
	return b.Finish()
}

// WriteEdgeList writes g as a 0-indexed "u v w" edge list. For undirected
// graphs each edge is written once (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < g.NumVertices(); u++ {
		heads, wts := g.Neighbors(u)
		for i, h := range heads {
			if g.Directed() || u < int(h) {
				fmt.Fprintf(bw, "%d %d %s\n", u, h, formatWeight(g.FromUnits(uint64(wts[i]))))
			}
		}
	}
	return bw.Flush()
}

func formatWeight(w float64) string {
	if w == float64(int64(w)) {
		return strconv.FormatInt(int64(w), 10)
	}
	return strconv.FormatFloat(w, 'g', -1, 64)
}
