package exp

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal fixed-width text table writer used by every
// experiment driver.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) row(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			r[i] = v
		case float64:
			r[i] = formatFloat(v)
		case int:
			r[i] = fmt.Sprintf("%d", v)
		case int64:
			r[i] = fmt.Sprintf("%d", v)
		default:
			r[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, r)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n## %s\n\n", title)
}

// bucketSeries compresses a per-tree series into log-spaced buckets (the
// figures plot thousands of trees; the text report shows the aggregate per
// bucket). agg is "sum" or "max".
func bucketSeries(series []int64, buckets int, agg string) []struct {
	Lo, Hi int
	Value  float64
} {
	n := len(series)
	if n == 0 {
		return nil
	}
	var out []struct {
		Lo, Hi int
		Value  float64
	}
	lo := 0
	size := 1
	for lo < n {
		hi := lo + size
		if hi > n {
			hi = n
		}
		var v float64
		for i := lo; i < hi; i++ {
			switch agg {
			case "max":
				if f := float64(series[i]); f > v {
					v = f
				}
			default:
				v += float64(series[i])
			}
		}
		if agg == "avg" {
			v /= float64(hi - lo)
		}
		out = append(out, struct {
			Lo, Hi int
			Value  float64
		}{lo, hi, v})
		lo = hi
		size *= 2
	}
	_ = buckets
	return out
}
