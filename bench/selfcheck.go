package main

import (
	"fmt"
	"sort"
)

// selfCheck runs every workload `runs` times untraced, on consecutive
// seeds as the driver does, and prints per metric and workload every
// value, the median and the spread beside the bound. The spread is the
// interquartile range over the median (for fewer than four runs, the full
// range over the median). It reports whether every spread, setup_s aside,
// is within its bound and no operation failed.
func selfCheck(cfg config, runs int) bool {
	ok := true
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			c := cfg
			c.seed = cfg.seed + int64(i)
			res, err := runOnce(c, w, false)
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", w.Name, c.seed, err)
				return false
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: %d of %d operations failed: %v\n", w.Name, c.seed, res.Failed, res.Attempted, res.failures)
				ok = false
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s, seeds %d..%d\n", w.Name, cfg.seed, cfg.seed+int64(runs)-1)
		for _, d := range endToEnd {
			vs := values[d.Name]
			sp := spread(vs)
			verdict := "ok"
			switch {
			case sp <= d.Bound:
			case d.Name == "setup_s":
				verdict = "wide (not gated)"
			default:
				verdict = "EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-34s median %12.6g %-8s spread %6.2f%%  bound %5.1f%%  %s  %v\n",
				d.Name, median(vs), d.Unit, 100*sp, 100*d.Bound, verdict, vs)
		}
	}
	return ok
}

// spread is the interquartile range of xs over its median, with the
// quartiles of Python's statistics.quantiles(xs, n=4); below four values
// it is the full range over the median.
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	q := func(k int) float64 { // exclusive method: position k(n+1)/4, 1-based
		pos := float64(k*(len(s)+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / med
}
