package mpisim

// MPI is the calling surface applications are written against. Both the
// plain runtime (*Rank) and the Pythia interposer implement it, so the same
// application code runs vanilla, recorded, or predicted.
type MPI interface {
	// Rank returns this endpoint's rank in the world.
	Rank() int
	// Size returns the number of ranks in the world.
	Size() int

	// Send delivers data to dest with the given tag (eager, non-blocking in
	// this runtime, like a buffered MPI_Send).
	Send(dest, tag int, data []float64)
	// Recv blocks until a message matching (src, tag) arrives and returns
	// its payload. src may be AnySource and tag may be AnyTag.
	Recv(src, tag int) []float64
	// Isend starts a non-blocking send and returns its request.
	Isend(dest, tag int, data []float64) *Request
	// Irecv posts a non-blocking receive and returns its request; the
	// payload is available from Wait.
	Irecv(src, tag int) *Request
	// Wait blocks until the request completes, returning the received
	// payload for receive requests (nil for sends).
	Wait(r *Request) []float64
	// Waitall waits for every request, in order.
	Waitall(rs []*Request)

	// Barrier synchronises all ranks.
	Barrier()
	// Bcast distributes root's data to every rank.
	Bcast(root int, data []float64) []float64
	// Reduce folds every rank's contribution with op; only root receives
	// the result (others get nil).
	Reduce(root int, op Op, data []float64) []float64
	// Allreduce folds every rank's contribution with op and gives the
	// result to every rank.
	Allreduce(op Op, data []float64) []float64
	// Alltoall sends send[i] to rank i and returns what every rank sent to
	// this one, indexed by source.
	Alltoall(send [][]float64) [][]float64
	// Allgather collects every rank's contribution, indexed by rank.
	Allgather(data []float64) [][]float64
	// Gather collects contributions at root (others get nil).
	Gather(root int, data []float64) [][]float64
}

// Request is a non-blocking operation handle.
type Request struct {
	recv bool
	src  int
	tag  int
	done bool
	data []float64
	rank *Rank
}

// Rank is the plain (un-instrumented) endpoint of one rank.
type Rank struct {
	world *World
	rank  int
}

var _ MPI = (*Rank)(nil)

// Rank returns this endpoint's rank.
func (r *Rank) Rank() int { return r.rank }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Send implements MPI.
func (r *Rank) Send(dest, tag int, data []float64) {
	cp := append([]float64(nil), data...)
	r.world.boxes[dest].put(message{src: r.rank, tag: tag, data: cp})
}

// Recv implements MPI.
func (r *Rank) Recv(src, tag int) []float64 {
	return r.world.boxes[r.rank].take(src, tag).data
}

// Isend implements MPI. Sends are eager, so the request completes
// immediately.
func (r *Rank) Isend(dest, tag int, data []float64) *Request {
	r.Send(dest, tag, data)
	return &Request{done: true, rank: r}
}

// Irecv implements MPI. Matching is deferred to Wait, which preserves MPI's
// per-(source, tag) ordering because the mailbox is matched in arrival
// order.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{recv: true, src: src, tag: tag, rank: r}
}

// Wait implements MPI.
func (r *Rank) Wait(req *Request) []float64 {
	if req.done {
		return req.data
	}
	req.done = true
	if req.recv {
		req.data = r.Recv(req.src, req.tag)
	}
	return req.data
}

// Waitall implements MPI.
func (r *Rank) Waitall(rs []*Request) {
	for _, req := range rs {
		r.Wait(req)
	}
}

// Barrier implements MPI.
func (r *Rank) Barrier() {
	r.world.coll.allgather(r.rank, nil)
}

// Bcast implements MPI.
func (r *Rank) Bcast(root int, data []float64) []float64 {
	all := r.world.coll.allgather(r.rank, data)
	return append([]float64(nil), all[root]...)
}

// Reduce implements MPI.
func (r *Rank) Reduce(root int, op Op, data []float64) []float64 {
	all := r.world.coll.allgather(r.rank, data)
	if r.rank != root {
		return nil
	}
	return fold(op, all)
}

// Allreduce implements MPI.
func (r *Rank) Allreduce(op Op, data []float64) []float64 {
	all := r.world.coll.allgather(r.rank, data)
	return fold(op, all)
}

// Alltoall implements MPI.
func (r *Rank) Alltoall(send [][]float64) [][]float64 {
	if len(send) != r.world.size {
		// pythia:allow panic-policy — a caller-contract panic on the
		// simulated MPI API: real MPI aborts on a mis-sized buffer too.
		panic("mpisim: Alltoall send buffer must have one slice per rank")
	}
	// Flatten contributions as concatenation with per-rank lengths; use p2p
	// instead: send to each peer, then receive from each peer.
	const alltoallTag = internalTagBase // reserved internal tag space
	for d := 0; d < r.world.size; d++ {
		if d == r.rank {
			continue
		}
		r.Send(d, alltoallTag, send[d])
	}
	out := make([][]float64, r.world.size)
	out[r.rank] = append([]float64(nil), send[r.rank]...)
	for s := 0; s < r.world.size; s++ {
		if s == r.rank {
			continue
		}
		m := r.world.boxes[r.rank].take(s, alltoallTag)
		out[s] = m.data
	}
	return out
}

// Allgather implements MPI.
func (r *Rank) Allgather(data []float64) [][]float64 {
	all := r.world.coll.allgather(r.rank, data)
	out := make([][]float64, len(all))
	for i, d := range all {
		out[i] = append([]float64(nil), d...)
	}
	return out
}

// Gather implements MPI.
func (r *Rank) Gather(root int, data []float64) [][]float64 {
	all := r.world.coll.allgather(r.rank, data)
	if r.rank != root {
		return nil
	}
	out := make([][]float64, len(all))
	for i, d := range all {
		out[i] = append([]float64(nil), d...)
	}
	return out
}

// fold reduces contributions element-wise with op. Ranks may contribute
// slices of equal length; nil contributions are ignored.
func fold(op Op, all [][]float64) []float64 {
	var out []float64
	for _, d := range all {
		if d == nil {
			continue
		}
		if out == nil {
			out = append([]float64(nil), d...)
			continue
		}
		for i := range out {
			if i < len(d) {
				out[i] = op.apply(out[i], d[i])
			}
		}
	}
	return out
}
