package vheap

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	h := New(10)
	if !h.Empty() || h.Len() != 0 {
		t.Fatalf("new heap not empty: len=%d", h.Len())
	}
}

func TestPushPopOrdered(t *testing.T) {
	h := New(5)
	keys := []uint64{14, 5, 36, 2, 28}
	for i, k := range keys {
		h.Push(i, k)
	}
	want := []int{3, 1, 0, 4, 2}
	for _, wi := range want {
		item, key := h.Pop()
		if item != wi {
			t.Fatalf("pop got %d (key %v), want %d", item, key, wi)
		}
	}
	if !h.Empty() {
		t.Fatal("heap not empty after draining")
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	if !h.Push(2, 5) {
		t.Fatal("decrease-key reported no change")
	}
	if h.Len() != 3 {
		t.Fatalf("len %d after decrease-key, want 3", h.Len())
	}
	// Increasing the key must be a no-op (Dijkstra semantics).
	if h.Push(2, 50) {
		t.Fatal("increase-key unexpectedly changed the heap")
	}
	for _, want := range [][2]uint64{{2, 5}, {0, 10}, {1, 20}} {
		if item, key := h.Pop(); uint64(item) != want[0] || key != want[1] {
			t.Fatalf("popped (%d,%v), want (%d,%v)", item, key, want[0], want[1])
		}
	}
	if !h.Empty() {
		t.Fatal("the superseded key of item 2 was popped too")
	}
}

// A popped item stays popped until Clear: Dijkstra never re-queues a
// settled vertex, and the heap holds it to that.
func TestPoppedItemStaysPopped(t *testing.T) {
	h := New(3)
	h.Push(0, 1)
	h.Push(1, 2)
	if item, _ := h.Pop(); item != 0 {
		t.Fatalf("popped %d, want 0", item)
	}
	if h.Push(0, 1) || h.Push(0, 5) {
		t.Fatal("a popped item was queued again")
	}
	if item, _ := h.Pop(); item != 1 || !h.Empty() {
		t.Fatalf("popped %d, want 1 and then an empty heap", item)
	}
}

func TestClearReuse(t *testing.T) {
	h := New(8)
	for i := 0; i < 8; i++ {
		h.Push(i, uint64(i))
	}
	h.Pop()
	h.Pop()
	h.Clear()
	if !h.Empty() {
		t.Fatal("heap not empty after Clear")
	}
	// Clear forgets the floor and the popped items.
	h.Push(3, 2)
	h.Push(0, 1)
	if item, _ := h.Pop(); item != 0 {
		t.Fatalf("heap broken after Clear: popped %d, want 0", item)
	}
	if item, _ := h.Pop(); item != 3 || !h.Empty() {
		t.Fatalf("heap broken after Clear: popped %d, want 3", item)
	}
}

func TestPushPanicsOffContract(t *testing.T) {
	for _, c := range []struct {
		name  string
		floor uint64
		key   uint64
	}{
		{"below the last popped key", 2, 0},
		{"just below the last popped key", 1 << 52, 1<<52 - 1},
	} {
		h := New(2)
		h.Push(0, c.floor)
		h.Pop()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Push(%v) after popping %v did not panic", c.name, c.key, c.floor)
				}
			}()
			h.Push(1, c.key)
		}()
	}
	// The last popped key itself is allowed.
	h := New(2)
	h.Push(0, 0)
	h.Pop()
	h.Push(1, 0)
	if _, k := h.Pop(); k != 0 {
		t.Fatalf("popped %v, want 0", k)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty heap did not panic")
		}
	}()
	New(1).Pop()
}

// model is a sorted multiset of the queued keys, per item, beside the set of
// items popped since the last clear.
type model struct {
	key    map[int]uint64
	popped map[int]bool
	floor  uint64
	// loose is set while a refused PopBelow has left the heap's floor
	// anywhere up to the model's: a push between them need not panic.
	loose bool
}

func newModel() *model { return &model{key: map[int]uint64{}, popped: map[int]bool{}} }

func (m *model) push(item int, key uint64) bool {
	if old, ok := m.key[item]; m.popped[item] || ok && key >= old {
		return false
	}
	m.key[item] = key
	return true
}

// min returns the smallest queued key.
func (m *model) min() uint64 {
	keys := make([]uint64, 0, len(m.key))
	for _, k := range m.key {
		keys = append(keys, k)
	}
	return slices.Min(keys)
}

// check holds one Pop answer to the model and applies it.
func (m *model) check(t *testing.T, what string, item int, key uint64) {
	t.Helper()
	if want := m.min(); key != want {
		t.Fatalf("%s returned key %v, the model's minimum is %v", what, key, want)
	}
	if got, ok := m.key[item]; !ok || got != key {
		t.Fatalf("%s returned (%d,%v), the model holds %v (queued %v)", what, item, key, got, ok)
	}
	m.floor, m.loose = key, false
	delete(m.key, item)
	m.popped[item] = true
}

func (m *model) clear() {
	m.key, m.popped, m.floor, m.loose = map[int]uint64{}, map[int]bool{}, 0, false
}

// popBelow holds one PopBelow answer to the model and applies it.
func (m *model) popBelow(t *testing.T, h *Heap, limit uint64) {
	t.Helper()
	item, key, ok := h.PopBelow(limit)
	if want := len(m.key) > 0 && m.min() < limit; ok != want {
		t.Fatalf("PopBelow(%v) = %v, want %v", limit, ok, want)
	}
	if ok {
		m.check(t, "PopBelow", item, key)
	} else if limit > m.floor {
		m.floor, m.loose = limit, true
	}
}

// TestHeapSortProperty: any monotone interleaving of pushes and pops —
// every key pushed at or above the last popped one — pops its keys in
// non-decreasing order, each queued item once, via testing/quick.
func TestHeapSortProperty(t *testing.T) {
	prop := func(deltas []uint16, pops []bool) bool {
		const n = 257
		h, m := New(n), newModel()
		for i, d := range deltas {
			// Steps below 512 collide often, so equal keys are common.
			key := m.floor + uint64(d%512)
			if h.Push(i%n, key) != m.push(i%n, key) {
				return false
			}
			if i < len(pops) && pops[i] && !h.Empty() {
				item, key := h.Pop()
				if key != m.min() || m.key[item] != key {
					return false
				}
				m.floor = key
				delete(m.key, item)
				m.popped[item] = true
			}
		}
		prev := m.floor
		for !h.Empty() {
			item, key := h.Pop()
			if key < prev || m.key[item] != key {
				return false
			}
			prev = key
			delete(m.key, item)
		}
		return len(m.key) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomOperationsAgainstModel drives the heap with a random monotone
// op sequence, PopBelow among its pops, and checks every observation
// against the model.
func TestRandomOperationsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	h, m := New(n), newModel()
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(9); {
		case op < 4 || len(m.key) == 0: // push / decrease
			item := rng.Intn(n)
			key := m.floor + uint64(rng.Intn(1000))
			if rng.Intn(8) == 0 {
				key = m.floor // equal to the floor
			} else if old, ok := m.key[item]; ok && rng.Intn(2) == 0 {
				key = m.floor + uint64(rng.Int63n(int64(old-m.floor)+1)) // a decrease
			}
			if got, want := h.Push(item, key), m.push(item, key); got != want {
				t.Fatalf("step %d: Push(%d,%v) changed=%v, want %v", step, item, key, got, want)
			}
		case op < 7:
			item, key := h.Pop()
			m.check(t, "Pop", item, key)
		default:
			m.popBelow(t, h, m.floor+uint64(rng.Intn(1000)))
		}
		if rng.Intn(2000) == 0 {
			h.Clear()
			m.clear()
		}
		if h.Len() != len(m.key) {
			t.Fatalf("step %d: len %d, model %d", step, h.Len(), len(m.key))
		}
	}
}

// TestPopBelow: PopBelow pops in key order while the minimum is below the
// limit, refuses at it, and a refusal leaves every key at or above the
// limit pushable, however far its redistribution raised the floor.
func TestPopBelow(t *testing.T) {
	h := New(6)
	for i, k := range []uint64{40, 3, 9, 1000, 41} {
		h.Push(i, k)
	}
	for _, want := range []int{1, 2} {
		if item, _, ok := h.PopBelow(40); !ok || item != want {
			t.Fatalf("PopBelow(40) = %d, %v; want %d", item, ok, want)
		}
	}
	if _, _, ok := h.PopBelow(40); ok {
		t.Fatal("PopBelow(40) popped the key 40")
	}
	h.Push(5, 40) // at the limit: allowed after the refusal
	for _, want := range []uint64{40, 40, 41} {
		if _, key, ok := h.PopBelow(999); !ok || key != want {
			t.Fatalf("PopBelow(999) = %v, %v; want %v", key, ok, want)
		}
	}
	if _, _, ok := h.PopBelow(999); ok || h.Len() != 1 {
		t.Fatalf("PopBelow(999) popped the key 1000, or dropped it (len %d)", h.Len())
	}
	if _, _, ok := New(1).PopBelow(math.MaxUint64); ok {
		t.Fatal("PopBelow on an empty heap popped")
	}
}

// TestPopBelowAgainstModel runs many short random sequences of pushes,
// decrease-keys, Pops and PopBelows over a few items, where the lowest
// occupied bucket often holds only superseded entries, and checks every
// observation against the model.
func TestPopBelowAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		const n = 8
		h, m := New(n), newModel()
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				item := rng.Intn(n)
				key := m.floor + uint64(rng.Intn(64))
				if old, ok := m.key[item]; ok && rng.Intn(2) == 0 {
					key = m.floor + uint64(rng.Int63n(int64(old-m.floor)+1))
				}
				if got, want := h.Push(item, key), m.push(item, key); got != want {
					t.Fatalf("trial %d: Push(%d,%v) changed=%v, want %v", trial, item, key, got, want)
				}
			case 1:
				m.popBelow(t, h, m.floor+uint64(rng.Intn(64)))
			case 2:
				if !h.Empty() {
					item, key := h.Pop()
					m.check(t, "Pop", item, key)
				}
			}
		}
	}
}

// FuzzHeap steers the heap through pushes at, above and (expecting a panic)
// below the floor, decrease-keys, Pops, PopBelows on either side of the
// minimum, and Clears, holding every answer to the model.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 3, 0, 1, 9, 1, 1, 2, 4, 1, 1})
	f.Add([]byte{0, 1, 8, 0, 2, 8, 0, 3, 8, 2, 0, 1, 1, 4, 0, 0, 0, 1, 1, 3, 1, 1})
	f.Add([]byte{0, 1, 200, 0, 2, 5, 1, 5, 0, 1, 0, 3, 1, 1})
	f.Add([]byte{0, 1, 40, 0, 2, 90, 4, 0, 20, 0, 3, 80, 4, 0, 200, 4, 0, 200, 3, 0, 0})
	f.Add([]byte{0, 1, 0, 4, 0, 0, 4, 0, 1}) // PopBelow refuses at the minimum, pops just above it
	f.Fuzz(func(t *testing.T, ops []byte) {
		const n = 16
		h, m := New(n), newModel()
		for len(ops) >= 3 {
			op, a, b := ops[0]%6, int(ops[1]), ops[2]
			ops = ops[3:]
			item := a % n
			switch op {
			case 0, 1: // push at or above the floor; b = 0 pushes the floor itself
				key := m.floor + uint64(b)/4
				if op == 1 && b >= 128 {
					key = m.floor + uint64(b)<<32 // far above: high buckets
				}
				if got, want := h.Push(item, key), m.push(item, key); got != want {
					t.Fatalf("Push(%d,%v) changed=%v, want %v", item, key, got, want)
				}
			case 2: // decrease-key of a queued item
				if old, ok := m.key[item]; ok {
					key := m.floor + (old-m.floor)*uint64(b)/256
					if got, want := h.Push(item, key), m.push(item, key); got != want {
						t.Fatalf("decrease Push(%d,%v) from %v changed=%v, want %v", item, key, old, got, want)
					}
				}
			case 3:
				if !h.Empty() {
					item, key := h.Pop()
					m.check(t, "Pop", item, key)
				}
			case 4: // PopBelow a limit up to 255 above the floor
				m.popBelow(t, h, m.floor+uint64(b))
			case 5:
				if b%4 == 0 {
					h.Clear()
					m.clear()
				} else if m.floor > 0 && !m.loose {
					key := (m.floor - 1) * uint64(b) / 256
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("Push(%v) below the floor %v did not panic", key, m.floor)
							}
						}()
						h.Push(item, key)
					}()
				}
			}
			if h.Len() != len(m.key) {
				t.Fatalf("len %d, model %d", h.Len(), len(m.key))
			}
		}
		for !h.Empty() {
			item, key := h.Pop()
			m.check(t, "Pop", item, key)
		}
		if len(m.key) != 0 {
			t.Fatalf("heap drained with %d items still queued in the model", len(m.key))
		}
	})
}

func TestDuplicateKeysStable(t *testing.T) {
	h := New(100)
	for i := 0; i < 100; i++ {
		h.Push(i, 7)
	}
	seen := make(map[int]bool)
	keys := make([]uint64, 0, 100)
	for !h.Empty() {
		item, k := h.Pop()
		if seen[item] {
			t.Fatalf("item %d popped twice", item)
		}
		seen[item] = true
		keys = append(keys, k)
	}
	if len(seen) != 100 {
		t.Fatalf("popped %d items, want 100", len(seen))
	}
	if !slices.IsSorted(keys) {
		t.Fatal("equal keys popped out of order")
	}
}

// Pushing and draining a Dijkstra-sized load again and again allocates
// nothing once the buckets have grown to it.
func TestReuseAllocatesNothing(t *testing.T) {
	const n = 1000
	h := New(n)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(rng.Intn(100000))
	}
	run := func() {
		h.Clear()
		for i, k := range keys {
			h.Push(i, k)
		}
		for !h.Empty() {
			h.Pop()
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		t.Fatalf("a reused heap allocated %v times per run", a)
	}
}
