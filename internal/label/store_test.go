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
				cs.Append(v, L{Hub: uint32(w*per + i), Dist: 1})
			}
		}(w)
	}
	wg.Wait()
	ix := cs.Seal()
	if total := ix.TotalLabels(); total != workers*per {
		t.Fatalf("stored %d labels, want %d", total, workers*per)
	}
	if err := ix.Validate(); err == nil {
		// Hubs were synthetic and > n, so Validate must fail — this
		// asserts Seal sorted the sets but kept contents.
		t.Fatal("Validate accepted out-of-range hubs")
	}
	for v := 0; v < n; v++ {
		if !ix.Labels(v).IsSorted() {
			t.Fatalf("vertex %d not sorted after Seal", v)
		}
	}
}

func TestConcurrentStoreQueryAgainst(t *testing.T) {
	cs := NewConcurrentStore(3)
	cs.Append(1, L{Hub: 2, Dist: 3})
	hd := NewHashDist(5)
	hd.Add(2, 4)
	if !cs.QueryAgainst(hd, 1, 7) {
		t.Fatal("witness 3+4 ≤ 7 missed")
	}
	if cs.QueryAgainst(hd, 1, 6.5) {
		t.Fatal("phantom witness")
	}
	if cs.QueryAgainst(hd, 0, 100) {
		t.Fatal("empty vertex matched")
	}
}

func TestConcurrentStoreAddTo(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.Append(1, L{Hub: 0, Dist: 3})
	cs.Append(1, L{Hub: 1, Dist: 0})
	hd := NewHashDist(2)
	hd.Add(0, 5) // AddTo adds, it does not clear: GLL hashes global then local
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
	cs.Append(0, L{Hub: 1, Dist: 2})
	out := cs.Drain()
	if len(out[0]) != 1 || len(cs.Drain()[0]) != 0 {
		t.Fatal("Drain did not move labels")
	}
	cs.Append(0, L{Hub: 2, Dist: 1}) // reusable after Drain
	if again := cs.Drain(); len(again[0]) != 1 || again[0][0].Hub != 2 {
		t.Fatal("store unusable after Drain")
	}
}

func TestConcurrentStoreProfiling(t *testing.T) {
	cs := NewConcurrentStore(2)
	cs.Append(0, L{Hub: 1, Dist: 1})
	if cs.LockCount() != 0 {
		t.Fatal("profiling counted while disabled")
	}
	cs.EnableProfiling()
	cs.Append(0, L{Hub: 2, Dist: 1})
	cs.AddTo(NewHashDist(3), 0)
	if cs.LockCount() != 2 {
		t.Fatalf("lock count = %d, want 2", cs.LockCount())
	}
}
