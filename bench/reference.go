package main

import (
	"slices"
	"sync"
	"time"
)

// The reference box is a shared host whose speed swings by ±20% from minute
// to minute with nothing else running in the VM — more than any bound the
// scoreboard could hold. So every end-to-end figure is taken between two
// readings of a reference kernel — fixed work that belongs to the benchmark,
// not to the library — and scaled to the speed at which the host runs that
// kernel in refNominal: a time is divided by the slowdown, a rate multiplied.
// A change to the library cannot move the reference, so it moves the scaled
// figure exactly as it moves the raw one. The report gives the unscaled
// medians and the range of the slowdown beside the scaled values.

// refNominal is the reference kernel's time on the reference box in a quiet
// spell. It only fixes the scale on which scaled figures read.
const refNominal = 0.022

// refWords are the kernel's buffers, one per core; it allocates nothing, so
// it never starts a collection of the measured code's garbage.
var refWords [procs][1 << 18]uint64

// reference runs the kernel once — each of the box's cores fills its buffer
// with the same pseudo-random words and sorts it — and returns the mean time
// per core in seconds. Not safe for concurrent use.
func reference() float64 {
	var (
		wg    sync.WaitGroup
		total [procs]time.Duration
	)
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			a := refWords[c][:]
			x := uint64(88172645463325252)
			for i := range a {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				a[i] = x
			}
			slices.Sort(a)
			total[c] = time.Since(start)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range total {
		sum += d
	}
	return sum.Seconds() / procs
}

// reading is one run of the reference kernel.
type reading struct {
	at   time.Time
	secs float64
}

// interval is the time a measurement was taken over.
type interval struct{ from, to time.Time }

// paced runs f between two readings of the reference kernel and returns the
// interval they enclose.
func (r *runner) paced(f func()) interval {
	r.read()
	f()
	return interval{from: r.readings[len(r.readings)-1].at, to: r.read()}
}

// timed is paced around a stopwatch: f's wall time and the interval.
func (r *runner) timed(f func()) sample {
	var secs float64
	over := r.paced(func() {
		start := time.Now()
		f()
		secs = time.Since(start).Seconds()
	})
	return sample{secs, over}
}

// slowdowns are all readings so far over the nominal time, ascending.
func (r *runner) slowdowns() []float64 {
	slow := make([]float64, len(r.readings))
	for i, rd := range r.readings {
		slow[i] = rd.secs / refNominal
	}
	slices.Sort(slow)
	return slow
}

func (r *runner) read() time.Time {
	secs := reference()
	now := time.Now()
	r.readings = append(r.readings, reading{now, secs})
	return now
}

// smoothing is how far either side of a measurement readings still count
// towards its slowdown: one reading is as noisy as what it corrects, the
// host's spells last several seconds.
const smoothing = 3 * time.Second

// slowdown is the host's slowdown over iv — 1 at the nominal speed, above 1
// when slower: the median of the readings taken within smoothing of it (the
// two that enclose it always are). Call it once the run's readings are all
// in.
func (r *runner) slowdown(iv interval) float64 {
	var near []float64
	for _, rd := range r.readings {
		if !rd.at.Before(iv.from.Add(-smoothing)) && !rd.at.After(iv.to.Add(smoothing)) {
			near = append(near, rd.secs)
		}
	}
	return median(near) / refNominal
}
