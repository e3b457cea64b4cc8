package cluster

import (
	"strings"
	"sync/atomic"
	"testing"
)

func TestBarrierSynchronizes(t *testing.T) {
	c := New(8)
	var phase int64
	c.Run(func(n *Node) {
		for round := 0; round < 50; round++ {
			// Before the barrier every node agrees on the phase value.
			if got := atomic.LoadInt64(&phase); got != int64(round) {
				t.Errorf("node %d saw phase %d in round %d", n.Rank(), got, round)
			}
			n.Barrier()
			if n.Rank() == 0 {
				atomic.AddInt64(&phase, 1)
			}
			n.Barrier()
		}
	})
}

func TestAllGather(t *testing.T) {
	c := New(5)
	st := c.Run(func(n *Node) {
		got := n.AllGather(n.Rank()*10, 8)
		for r, v := range got {
			if v.(int) != r*10 {
				t.Errorf("node %d: slot %d = %v", n.Rank(), r, v)
			}
		}
	})
	// Each of 5 nodes sends 8 bytes to 4 peers.
	if st.BytesSent != 5*8*4 {
		t.Fatalf("bytes = %d, want %d", st.BytesSent, 5*8*4)
	}
	if st.MessagesSent != 5*4 {
		t.Fatalf("messages = %d", st.MessagesSent)
	}
}

func TestAllGatherSingleNodeFree(t *testing.T) {
	c := New(1)
	st := c.Run(func(n *Node) {
		v := n.AllGather("x", 100)
		if v[0].(string) != "x" {
			t.Error("self gather broken")
		}
	})
	if st.BytesSent != 0 || st.MessagesSent != 0 {
		t.Fatalf("single-node traffic charged: %+v", st)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	c := New(3)
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic swallowed")
		}
		if !strings.Contains(p.(string), "boom") {
			t.Fatalf("unexpected panic payload %v", p)
		}
	}()
	c.Run(func(n *Node) {
		if n.Rank() == 1 {
			panic("boom")
		}
		// Other nodes block on a barrier; the abort must release them
		// instead of deadlocking the test.
		n.Barrier()
	})
}

// TestStatsPerNode gathers a payload only node 0 has — a broadcast, as
// internal/dist's votes are — so node 0 alone is charged bytes, while every
// node is charged its messages.
func TestStatsPerNode(t *testing.T) {
	st := New(3).Run(func(n *Node) {
		var payload []byte
		if n.Rank() == 0 {
			payload = make([]byte, 10)
		}
		got := n.AllGather(payload, int64(len(payload)))
		if len(got[0].([]byte)) != 10 {
			t.Errorf("node %d received %v from node 0", n.Rank(), got[0])
		}
	})
	if st.BytesPerNode[0] != 20 || st.BytesPerNode[1] != 0 || st.BytesPerNode[2] != 0 {
		t.Fatalf("per-node bytes %v", st.BytesPerNode)
	}
	if st.PeakNodeBytes != 20 || st.BytesSent != 20 || st.MessagesSent != 6 {
		t.Fatalf("peak %d, total %d bytes in %d messages", st.PeakNodeBytes, st.BytesSent, st.MessagesSent)
	}
	if st.Barriers != 1 {
		t.Fatalf("one gather counted as %d synchronizations", st.Barriers)
	}
}

// A collective is one synchronization, whatever the simulation does
// internally to keep its slots safe.
func TestCollectivesCountOnce(t *testing.T) {
	st := New(3).Run(func(n *Node) {
		n.AllGather(n.Rank(), 8)
		n.AllGather(nil, 0)
		n.Barrier()
	})
	if st.Barriers != 3 {
		t.Fatalf("two gathers and a barrier counted as %d synchronizations", st.Barriers)
	}
}
