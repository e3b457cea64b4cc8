package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// median of xs (mean of the middle two for an even count); xs is not
// modified. Zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p < 100) of a sorted
// sample. Zero for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100 + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// opCount tallies operations: a build, an HTTP request, an oracle row. A
// failed operation is counted and contributes to no latency figure.
type opCount struct {
	attempted, failed atomic.Int64

	mu   sync.Mutex
	msgs []string // the first few failures, for the report
}

func (o *opCount) ok() { o.attempted.Add(1) }

func (o *opCount) fail(format string, args ...any) {
	o.attempted.Add(1)
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.msgs) < 5 {
		o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// sample is one measurement and the interval it was taken over, from which
// the host's slowdown is worked out once the run is over (see reference.go).
type sample struct {
	raw  float64
	over interval
}

type samples []sample

// raws are the measurements as taken.
func (s samples) raws() []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.raw
	}
	return out
}

// times are durations scaled to the reference speed.
func (r *runner) times(s samples) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.raw / r.slowdown(x.over)
	}
	return out
}

// rates are throughputs scaled to the reference speed.
func (r *runner) rates(s samples) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.raw * r.slowdown(x.over)
	}
	return out
}
