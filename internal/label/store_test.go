package label

import (
	"math/rand"
	"sync"
	"testing"
)

func TestConcurrentStoreParallelAppend(t *testing.T) {
	const n, workers, per = 50, 8, 200
	cs := NewConcurrentStore(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				v := rng.Intn(n)
				cs.Append(v, Pack(uint32(w*per+i), 1))
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, workers*per) // every hub was appended once
	for _, s := range cs.Drain() {
		for _, l := range s {
			if seen[Hub(l)] {
				t.Fatalf("hub %d stored twice", Hub(l))
			}
			seen[Hub(l)] = true
		}
	}
	for h, ok := range seen {
		if !ok {
			t.Fatalf("hub %d lost", h)
		}
	}
}

func TestConcurrentStoreQueryAgainst(t *testing.T) {
	cs := NewConcurrentStore(3)
	cs.Append(1, Pack(2, 3))
	hd := NewHubTable(5)
	hd.Add(Pack(2, 4))
	if !cs.QueryAgainst(hd, 1, 7) {
		t.Fatal("witness 3+4 ≤ 7 missed")
	}
	if cs.QueryAgainst(hd, 1, 6) {
		t.Fatal("phantom witness")
	}
	if cs.QueryAgainst(hd, 0, 100) {
		t.Fatal("empty vertex matched")
	}
}

func TestConcurrentStoreAddTo(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.Append(1, Pack(0, 3))
	cs.Append(1, Pack(1, 0))
	hd := NewHubTable(2)
	hd.Add(Pack(0, 5)) // AddTo adds, it does not clear: GLL hashes global then local
	cs.AddTo(hd, 1)
	if d, ok := hd.Get(0); !ok || d != 3 {
		t.Fatalf("hub 0 = %v,%v want the improved 3", d, ok)
	}
	if d, ok := hd.Get(1); !ok || d != 0 {
		t.Fatalf("hub 1 = %v,%v want 0", d, ok)
	}
	cs.AddTo(hd, 0) // empty set: nothing to add
}

func TestConcurrentStoreDrain(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.Append(0, Pack(1, 2))
	out := cs.Drain()
	if len(out[0]) != 1 || len(cs.Drain()[0]) != 0 {
		t.Fatal("Drain did not move labels")
	}
	cs.Append(0, Pack(2, 1)) // reusable after Drain
	if again := cs.Drain(); len(again[0]) != 1 || Hub(again[0][0]) != 2 {
		t.Fatal("store unusable after Drain")
	}
}

func TestConcurrentStoreProfiling(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.Append(0, Pack(1, 1))
	if cs.LockCount() != 0 {
		t.Fatal("profiling counted while disabled")
	}
	cs.EnableProfiling()
	cs.Append(0, Pack(2, 1))
	cs.AddTo(NewHubTable(3), 0)
	if cs.LockCount() != 2 {
		t.Fatalf("lock count = %d, want 2", cs.LockCount())
	}
}

func TestConcurrentStoreEmptyReadsTakeNoLock(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.EnableProfiling()
	hd := NewHubTable(2)
	if cs.QueryAgainst(hd, 1, 100) {
		t.Fatal("empty vertex matched")
	}
	cs.AddTo(hd, 1)
	if got := cs.LockCount(); got != 0 {
		t.Fatalf("reads of an empty set took %d locks", got)
	}
	cs.Append(1, Pack(0, 1))
	cs.QueryAgainst(hd, 1, 100)
	cs.AddTo(hd, 1)
	if got := cs.LockCount(); got != 3 {
		t.Fatalf("append and two reads of a non-empty set took %d locks, want 3", got)
	}
	cs.Recycle(cs.Drain())
	cs.QueryAgainst(hd, 1, 100)
	cs.AddTo(hd, 1)
	if got := cs.LockCount(); got != 3 {
		t.Fatalf("reads of a drained set took %d more locks", got-3)
	}
}

// TestConcurrentStoreRecycle drains a store, hands the storage back and
// refills it: no label of the earlier round is visible to a read, and the
// refill reuses the drained capacity.
func TestConcurrentStoreRecycle(t *testing.T) {
	cs := NewConcurrentStore(3)
	for h := uint32(0); h < 4; h++ {
		cs.Append(0, Pack(h, 1))
	}
	cs.Append(1, Pack(0, 1))
	drained := cs.Drain()
	cs.Recycle(drained)

	hd := NewHubTable(8)
	hd.Add(Pack(0, 1))
	if cs.QueryAgainst(hd, 0, 100) || cs.QueryAgainst(hd, 1, 100) {
		t.Fatal("a drained label answered a query")
	}
	cs.AddTo(hd, 0)
	if _, ok := hd.Get(3); ok {
		t.Fatal("AddTo hashed a drained label")
	}

	cs.Append(0, Pack(7, 2))
	probe := NewHubTable(8)
	cs.AddTo(probe, 0)
	for h := uint32(0); h < 4; h++ {
		if _, ok := probe.Get(h); ok {
			t.Fatalf("hub %d of the drained round is visible after reuse", h)
		}
	}
	if d, ok := probe.Get(7); !ok || d != 2 {
		t.Fatalf("hub 7 = %v,%v want 2", d, ok)
	}
	refilled := cs.Drain()
	if got := refilled[0]; len(got) != 1 || Hub(got[0]) != 7 || &got[0] != &drained[0][0] {
		t.Fatalf("vertex 0 after reuse = %v, want the one new label in the drained storage", got)
	}
	if len(refilled[1])+len(refilled[2]) != 0 {
		t.Fatalf("vertices 1, 2 after reuse = %v, %v, want empty", refilled[1], refilled[2])
	}
}

// TestConcurrentStoreReadersBesideAppenders races the lock-free empty check
// against appends (meant for -race); no append is lost and a reader that
// hashed nothing matches nothing.
func TestConcurrentStoreReadersBesideAppenders(t *testing.T) {
	const n, per = 16, 300
	cs := NewConcurrentStore(n)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) { // appender: hubs 0, 1, … at distance 1 on every vertex it owns
			defer wg.Done()
			for i := 0; i < per; i++ {
				cs.Append(2*(i%(n/2))+w, Pack(uint32(i/(n/2)), 1))
			}
		}(w)
		go func(w int) { // reader
			defer wg.Done()
			hd := NewHubTable(per)
			for i := 0; i < per; i++ {
				v := (i*7 + w) % n
				hd.Reset()
				cs.AddTo(hd, v)
				if _, ok := hd.Get(0); !ok && cs.QueryAgainst(hd, v, 100) {
					t.Error("a query matched against an empty hash")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := FromSets(cs.Drain(), 0).TotalLabels(); got != 2*per {
		t.Fatalf("stored %d labels, want %d", got, 2*per)
	}
}
