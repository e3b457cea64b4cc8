package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Parent 0 is the run itself.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUs  float64 `json:"start_us"` // since the trace began
	EndUs    float64 `json:"end_us"`
	Count    int64   `json:"count,omitempty"` // operations inside, when the span is a loop
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run goes through the same calls.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, count int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartUs: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		EndUs:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
		Count:   count,
	})
	return id
}

// open reserves a span that encloses others; close it with done.
func (t *tracer) open(parent int, name string) (id int, done func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(parent, name, start, start, 0)
	return id, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].EndUs = float64(end.Sub(t.epoch).Nanoseconds()) / 1e3
		t.mu.Unlock()
	}
}

// do times f under a span and returns its wall time; f returns how many
// operations it performed.
func (t *tracer) do(parent int, name string, f func() int64) time.Duration {
	start := time.Now()
	count := f()
	end := time.Now()
	t.add(parent, name, start, end, count)
	return end.Sub(start)
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
