package delta

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/graph"
)

// Log is a serving tier's patch log between two rebuilds: the base graph
// the frozen labels were built from, the ops accumulated since, their
// overlay, and the journal that makes them durable. A batch is reduced
// with the whole log, built into the next overlay, journaled, and only
// then adopted, so it is observable iff it is durable, and one that fails
// anywhere changes nothing. Its owner serializes every call.
type Log struct {
	base    *graph.Graph
	journal string // "" disables journaling
	ops     []Op
	epoch   uint64   // batches adopted; the next overlay is built at epoch+1
	ov      *Overlay // built over ops; nil while ops is empty
}

// Runs supplies the frozen label runs an overlay seeds its tables from:
// the forward run of every vertex in verts and, on a directed index, the
// backward run too (nil otherwise).
type Runs func(verts []int) (fwd, bwd [][]uint64, err error)

// NewLog starts an empty log over base, journaled at journal ("": none);
// ops already in the journal wait for Replay.
func NewLog(base *graph.Graph, journal string) *Log {
	return &Log{base: base, journal: journal}
}

// Base returns the graph the log's ops are reduced against.
func (l *Log) Base() *graph.Graph { return l.base }

// Len returns the number of outstanding ops.
func (l *Log) Len() int { return len(l.ops) }

// Apply adopts ops and returns the next overlay, built from the runs
// supplied for its patch vertices (counting units of 2^-unitExp). An
// empty batch, or one Reduce refuses, fails with an error Refused
// recognizes.
func (l *Log) Apply(ops []Op, unitExp int, runs Runs) (*Overlay, error) {
	if len(ops) == 0 {
		return nil, refusal{errors.New("delta: empty patch")}
	}
	return l.apply(ops, unitExp, runs, true)
}

// Replay applies the ops already in the journal as one batch, appending
// nothing, and returns its overlay — nil when there was nothing to replay.
func (l *Log) Replay(unitExp int, runs Runs) (ov *Overlay, err error) {
	if l.journal == "" {
		return nil, nil
	}
	ops, err := readJournal(l.journal)
	if err == nil && len(ops) > 0 {
		ov, err = l.apply(ops, unitExp, runs, false)
	}
	if err != nil {
		return nil, fmt.Errorf("delta: replaying journal %s: %w", l.journal, err)
	}
	return ov, nil
}

// apply is every batch's one path. Only a fresh batch is journaled, and
// only its Reduce failure is a refusal.
func (l *Log) apply(ops []Op, unitExp int, runs Runs, fresh bool) (*Overlay, error) {
	combined := append(l.ops[:len(l.ops):len(l.ops)], ops...)
	red, err := Reduce(l.base, combined)
	if err != nil {
		if fresh {
			err = refusal{err}
		}
		return nil, err
	}
	fwd, bwd, err := runs(red.Verts())
	if err != nil {
		return nil, err
	}
	ov, err := NewOverlay(red, combined, l.epoch+1, unitExp, fwd, bwd)
	if err != nil {
		return nil, err
	}
	if fresh && l.journal != "" {
		if err := appendJournal(l.journal, ops); err != nil {
			return nil, fmt.Errorf("delta: journaling the batch: %w", err)
		}
	}
	l.ops, l.epoch, l.ov = combined, l.epoch+1, ov
	return ov, nil
}

// Patched returns the overlay's materialized patched graph, which
// compaction rebuilds over; with nothing outstanding it is refused.
func (l *Log) Patched() (*graph.Graph, error) {
	if l.ov == nil {
		return nil, refusal{errors.New("delta: nothing to compact: no edge updates are outstanding")}
	}
	return l.ov.Patched(), nil
}

// Compacted makes patched, which a fresh index now serves, the base: the
// log empties and the journal is truncated. The epoch keeps counting.
func (l *Log) Compacted(patched *graph.Graph) error {
	l.base, l.ops, l.ov = patched, nil, nil
	if l.journal == "" {
		return nil
	}
	return truncateJournal(l.journal)
}

// refusal marks an error as the request's own fault.
type refusal struct{ error }

func (r refusal) Unwrap() error { return r.error }

// Refused reports whether err is a Log refusing its caller's request — an
// empty batch, a batch Reduce rejects, a compaction with nothing
// outstanding — rather than a failure of the process serving it.
func Refused(err error) bool { return errors.As(err, new(refusal)) }

// appendJournal appends ops to the journal at path (creating it if
// needed) and syncs, so an accepted batch survives a crash.
func appendJournal(path string, ops []Op) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(FormatPatchLog(ops))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readJournal parses the journal at path; a missing file is empty.
func readJournal(path string) ([]Op, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return ParsePatchLog(b)
}

// truncateJournal empties the journal; a missing file already is.
func truncateJournal(path string) error {
	if err := os.Truncate(path, 0); !os.IsNotExist(err) {
		return err
	}
	return nil
}
