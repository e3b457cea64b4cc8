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

func TestBroadcast(t *testing.T) {
	c := New(4)
	st := c.Run(func(n *Node) {
		var payload []int
		if n.Rank() == 2 {
			payload = []int{1, 2, 3}
		}
		got := n.Broadcast(2, payload, 24).([]int)
		if len(got) != 3 || got[2] != 3 {
			t.Errorf("node %d received %v", n.Rank(), got)
		}
	})
	if st.BytesSent != 24*3 { // root pays (q-1)×bytes
		t.Fatalf("broadcast bytes = %d", st.BytesSent)
	}
}

func TestAllReduce(t *testing.T) {
	c := New(6)
	c.Run(func(n *Node) {
		sum := n.AllReduceInt64(int64(n.Rank()), func(a, b int64) int64 { return a + b })
		if sum != 15 {
			t.Errorf("sum = %d", sum)
		}
		max := n.AllReduceInt64(int64(n.Rank()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if max != 5 {
			t.Errorf("max = %d", max)
		}
		minf := n.AllReduceFloat64(float64(10-n.Rank()), func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		})
		if minf != 5 {
			t.Errorf("min = %v", minf)
		}
	})
}

func TestAllReduceBits(t *testing.T) {
	c := New(3)
	c.Run(func(n *Node) {
		bits := make([]uint64, 2)
		bits[0] = 1 << uint(n.Rank())
		bits[1] = 1 << uint(63-n.Rank())
		out := n.AllReduceBits(bits)
		if out[0] != 0b111 {
			t.Errorf("node %d: word0 = %b", n.Rank(), out[0])
		}
		if out[1] != (1<<63)|(1<<62)|(1<<61) {
			t.Errorf("node %d: word1 = %x", n.Rank(), out[1])
		}
	})
}

func TestSendRecv(t *testing.T) {
	c := New(4)
	c.Run(func(n *Node) {
		// Ring: each node sends its rank to the next.
		next := (n.Rank() + 1) % 4
		n.Send(next, 7, n.Rank(), 8)
		from, payload := n.Recv(7)
		want := (n.Rank() + 3) % 4
		if from != want || payload.(int) != want {
			t.Errorf("node %d received %v from %d, want %d", n.Rank(), payload, from, want)
		}
	})
}

func TestSendRecvTagFiltering(t *testing.T) {
	c := New(2)
	c.Run(func(n *Node) {
		if n.Rank() == 0 {
			n.Send(1, 1, "one", 3)
			n.Send(1, 2, "two", 3)
		} else {
			// Receive tag 2 first even though tag 1 arrived first.
			if _, p := n.Recv(2); p.(string) != "two" {
				t.Errorf("tag 2 got %v", p)
			}
			if _, p := n.Recv(1); p.(string) != "one" {
				t.Errorf("tag 1 got %v", p)
			}
		}
	})
}

func TestLocalSendIsFree(t *testing.T) {
	c := New(2)
	st := c.Run(func(n *Node) {
		n.Send(n.Rank(), 9, "self", 1000)
		if _, p := n.Recv(9); p.(string) != "self" {
			t.Error("self message lost")
		}
	})
	if st.BytesSent != 0 {
		t.Fatalf("local delivery charged %d bytes", st.BytesSent)
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

func TestStatsPerNode(t *testing.T) {
	c := New(3)
	st := c.Run(func(n *Node) {
		var payload []byte
		if n.Rank() == 0 {
			payload = make([]byte, 10)
		}
		n.Broadcast(0, payload, 10)
	})
	if st.BytesPerNode[0] != 20 || st.BytesPerNode[1] != 0 {
		t.Fatalf("per-node bytes %v", st.BytesPerNode)
	}
	if st.PeakNodeBytes != 20 {
		t.Fatalf("peak %d", st.PeakNodeBytes)
	}
	if st.Barriers != 1 {
		t.Fatalf("one broadcast counted as %d synchronizations", st.Barriers)
	}
}

// A collective is one synchronization, whatever the simulation does
// internally to keep its slots safe.
func TestCollectivesCountOnce(t *testing.T) {
	st := New(3).Run(func(n *Node) {
		n.AllGather(n.Rank(), 8)
		n.AllReduceInt64(1, func(a, b int64) int64 { return a + b })
		n.Broadcast(1, "x", 1)
		n.Barrier()
	})
	if st.Barriers != 4 {
		t.Fatalf("two gathers, a broadcast and a barrier counted as %d synchronizations", st.Barriers)
	}
}
