// Package mpisim is an in-process message-passing runtime with the calling
// surface of MPI: ranks (goroutines) exchange tagged point-to-point messages
// and participate in collectives. It substitutes for a real MPI library in
// this reproduction (see DESIGN.md): Pythia never inspects message payloads,
// only the event stream of which primitive was called with which peer, so an
// in-process runtime with the same surface produces the same grammars as the
// paper's LD_PRELOAD-intercepted OpenMPI.
//
// Point-to-point sends are eager (buffered): Send never blocks waiting for
// the receiver. Collectives synchronise all ranks of the world.
package mpisim

import (
	"fmt"
	"sync"
)

// AnySource matches any sending rank in Recv/Irecv.
const AnySource = -1

// AnyTag matches any message tag in Recv/Irecv.
const AnyTag = -1

// internalTagBase marks the start of the reserved (internal) tag space used
// by collectives implemented over point-to-point messages.
const internalTagBase = -1000

// Op is a reduction operation for Reduce/Allreduce.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

// String names the operation (also used as the Pythia event payload).
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("op%d", int(o))
	}
}

func (o Op) apply(acc, v float64) float64 {
	switch o {
	case OpSum:
		return acc + v
	case OpMax:
		if v > acc {
			return v
		}
		return acc
	case OpMin:
		if v < acc {
			return v
		}
		return acc
	case OpProd:
		return acc * v
	default:
		return acc
	}
}

// message is one point-to-point payload in flight.
type message struct {
	src  int
	tag  int
	data []float64
}

// mailbox is a rank's incoming message queue with tag/source matching.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.q = append(mb.q, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// take blocks until a message matching (src, tag) is queued and removes it.
// Matching honours arrival order (first match wins), preserving MPI's
// per-pair ordering guarantee.
func (mb *mailbox) take(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.q {
			// AnyTag never matches internal (reserved) tags, so collective
			// traffic cannot be stolen by wildcard receives.
			if (src == AnySource || m.src == src) &&
				(m.tag == tag || (tag == AnyTag && m.tag > internalTagBase)) {
				mb.q = append(mb.q[:i], mb.q[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// collective implements the world-wide synchronising primitives. All ranks
// must call collectives in the same order (as MPI requires). The last rank
// to arrive assembles the all-gathered contributions and hands every rank
// its own result pointer, which is race-free even if a fast rank immediately
// starts the next collective.
type collective struct {
	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	slots   [][]float64
	out     [][][]float64
}

func newCollective(size int) *collective {
	c := &collective{
		slots: make([][]float64, size),
		out:   make([][][]float64, size),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// allgather deposits data and returns every rank's contribution, indexed by
// rank. The returned slice is shared and must be treated as read-only.
func (c *collective) allgather(rank int, data []float64) [][]float64 {
	c.mu.Lock()
	c.slots[rank] = data
	c.arrived++
	if c.arrived == len(c.slots) {
		snapshot := make([][]float64, len(c.slots))
		copy(snapshot, c.slots)
		for r := range c.out {
			c.out[r] = snapshot
		}
		c.arrived = 0
		c.cond.Broadcast()
	} else {
		for c.out[rank] == nil {
			c.cond.Wait()
		}
	}
	res := c.out[rank]
	c.out[rank] = nil
	c.mu.Unlock()
	return res
}

// World is one simulated MPI job: a fixed set of ranks sharing mailboxes and
// a collective context.
type World struct {
	size  int
	boxes []*mailbox
	coll  *collective
}

// NewWorld creates a world of the given size (>= 1).
func NewWorld(size int) *World {
	if size < 1 {
		// pythia:allow panic-policy — a caller-contract panic: real MPI
		// aborts on an invalid world size too.
		panic(fmt.Sprintf("mpisim: world size %d", size))
	}
	w := &World{size: size, coll: newCollective(size)}
	for i := 0; i < size; i++ {
		w.boxes = append(w.boxes, newMailbox())
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns the communication endpoint of one rank. Each endpoint must be
// used by a single goroutine.
func (w *World) Rank(rank int) *Rank {
	if rank < 0 || rank >= w.size {
		// pythia:allow panic-policy — a caller-contract panic: real MPI
		// aborts on an out-of-range rank too.
		panic(fmt.Sprintf("mpisim: rank %d out of world of size %d", rank, w.size))
	}
	return &Rank{world: w, rank: rank}
}

// Run starts one goroutine per rank executing body and waits for all of them
// to finish. It is the moral equivalent of mpirun.
func (w *World) Run(body func(m MPI)) {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(w.Rank(r))
		}(r)
	}
	wg.Wait()
}

// RunInterposed is Run with each rank's endpoint wrapped in the given
// decorator (typically a Pythia interposer).
func (w *World) RunInterposed(wrap func(m MPI) MPI, body func(m MPI)) {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			body(wrap(w.Rank(r)))
		}(r)
	}
	wg.Wait()
}
