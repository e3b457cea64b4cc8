// Package cluster simulates a distributed-memory compute cluster on a
// single machine. The paper's distributed construction algorithms
// (DparaPLL, DGLL, PLaNT, Hybrid, in internal/dist) run on q MPI processes;
// here every "node" is a goroutine with strictly private state, and all data
// movement goes through AllGather, which hands payloads over read-only and
// meters every byte, message and synchronization (a collective is one
// synchronization, as an MPI program would pay it). The query modes QFDL
// and QDOL are costed by internal/query's model and do not run here.
//
// That accounting is the point: the communication volume, synchronization
// count and per-node memory those algorithms generate are machine
// independent, so the paper's scalability crossovers (PLaNT's zero label
// traffic vs. DGLL's broadcast storms, DparaPLL's label replication OOMs)
// reproduce faithfully even though the "cluster" is one box.
//
// AllGather and Barrier follow bulk-synchronous MPI semantics: every node
// must call the same collective in the same order, or the run deadlocks —
// exactly like MPI.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats aggregates the traffic generated by a cluster run.
type Stats struct {
	Nodes         int
	BytesSent     int64 // payload bytes leaving any node
	MessagesSent  int64 // messages: a gather counts q-1 per contributor
	Barriers      int64 // synchronizations: one per Barrier call or collective
	BytesPerNode  []int64
	PeakNodeBytes int64 // max over nodes of BytesPerNode
}

// Cluster coordinates q simulated nodes.
type Cluster struct {
	q        int
	barrier  *barrier
	slots    []any // per-rank contribution slot for collectives
	bytes    []int64
	messages []int64
	barriers int64
}

// New creates a simulated cluster of q nodes.
func New(q int) *Cluster {
	if q < 1 {
		panic("cluster: need at least one node")
	}
	return &Cluster{
		q:        q,
		barrier:  newBarrier(q),
		slots:    make([]any, q),
		bytes:    make([]int64, q),
		messages: make([]int64, q),
	}
}

// Size returns q.
func (c *Cluster) Size() int { return c.q }

// Run executes body on every node concurrently (SPMD style) and returns the
// collected traffic statistics. Panics in a node are re-panicked after all
// nodes stop, so tests fail loudly rather than deadlocking.
func (c *Cluster) Run(body func(n *Node)) Stats {
	var wg sync.WaitGroup
	panics := make([]any, c.q)
	for r := 0; r < c.q; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					c.barrier.abort()
				}
			}()
			body(&Node{c: c, rank: rank})
		}(r)
	}
	wg.Wait()
	// Re-panic the root cause: a node that failed on its own, not one that
	// merely hit the broken barrier while the cluster was being torn down.
	var fallback string
	for r, p := range panics {
		if p == nil {
			continue
		}
		if _, secondary := p.(brokenBarrier); secondary {
			if fallback == "" {
				fallback = fmt.Sprintf("cluster: node %d panicked: %v", r, p)
			}
			continue
		}
		if err, ok := p.(error); ok { // wrapped, so errors.As still finds it
			panic(fmt.Errorf("cluster: node %d panicked: %w", r, err))
		}
		panic(fmt.Sprintf("cluster: node %d panicked: %v", r, p))
	}
	if fallback != "" {
		panic(fallback)
	}
	return c.Stats()
}

// Stats returns the traffic accumulated so far.
func (c *Cluster) Stats() Stats {
	st := Stats{Nodes: c.q, Barriers: atomic.LoadInt64(&c.barriers)}
	st.BytesPerNode = make([]int64, c.q)
	for r := 0; r < c.q; r++ {
		b := atomic.LoadInt64(&c.bytes[r])
		st.BytesPerNode[r] = b
		st.BytesSent += b
		st.MessagesSent += atomic.LoadInt64(&c.messages[r])
		if b > st.PeakNodeBytes {
			st.PeakNodeBytes = b
		}
	}
	return st
}

// Node is one simulated cluster node; it is only valid inside Cluster.Run.
type Node struct {
	c    *Cluster
	rank int
}

// Rank returns this node's rank in [0, q).
func (n *Node) Rank() int { return n.rank }

// Size returns the cluster size q.
func (n *Node) Size() int { return n.c.q }

// Barrier blocks until every node reaches it.
func (n *Node) Barrier() {
	if n.rank == 0 {
		atomic.AddInt64(&n.c.barriers, 1)
	}
	n.c.barrier.await()
}

// AllGather contributes one payload per node and returns every node's
// payload indexed by rank. bytes is the wire size of this node's
// contribution; each contributor is charged bytes×(q−1) (it must reach
// every peer). The returned payloads must be treated as read-only: like an
// MPI buffer, mutating a received payload corrupts the sender's copy.
func (n *Node) AllGather(payload any, bytes int64) []any {
	c := n.c
	c.slots[n.rank] = payload
	if c.q > 1 {
		atomic.AddInt64(&c.bytes[n.rank], bytes*int64(c.q-1))
		atomic.AddInt64(&c.messages[n.rank], int64(c.q-1))
	}
	n.Barrier()
	out := make([]any, c.q)
	copy(out, c.slots)
	// Nobody overwrites slots until everyone has read. Slot reuse is the
	// simulation's problem, not a synchronization an MPI program pays, so
	// this wait is not counted.
	c.barrier.await()
	return out
}

// barrier is a reusable sense-reversing barrier with an abort path so a
// panicking node does not deadlock the others.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	phase   uint64
	broken  bool
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// brokenBarrier is the panic payload raised when a node reaches a barrier
// that another node's failure has already torn down.
type brokenBarrier string

func (b brokenBarrier) String() string { return string(b) }

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic(brokenBarrier("cluster: barrier broken by another node's failure"))
	}
	phase := b.phase
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for b.phase == phase && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		panic(brokenBarrier("cluster: barrier broken by another node's failure"))
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
