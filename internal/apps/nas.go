package apps

import "repro/internal/mpisim"

// RunBT is the Block-Tridiagonal solver kernel. Its structure follows the
// grammar the paper extracts in Fig. 7: a setup of broadcasts and a halo
// exchange, 200 iterations (all classes — BT's iteration count does not
// depend on the working set) of ADI sweeps with non-blocking point-to-point
// communication, and a closing pair of allreduces, a reduce and barriers.
func RunBT(ctx *Context) {
	m := ctx.MPI
	n := pick3(ctx.Class, 32, 64, 128) // line length
	const lines = 8
	grid := make([]float64, lines*n)
	for i := range grid {
		grid[i] = float64(i%7) * 0.1
	}
	scratch := make([]float64, n)
	for i := 0; i < 6; i++ {
		m.Bcast(0, []float64{float64(n)})
	}
	faceExchange(m, 0, grid[:4])
	m.Barrier()

	left, right := neighbors(m)
	adiRepeats := pick3(ctx.Class, 1, 4, 12)
	sink := 0.0
	for it := 0; it < 200; it++ {
		faceExchange(m, 1, grid[:4])
		// The real ADI step: implicit tridiagonal solves along the three
		// directions (three sweeps over the local lines).
		for dir := 0; dir < 3; dir++ {
			for rp := 0; rp < adiRepeats; rp++ {
				sink += ADISweep(grid, lines, n, 0.4, scratch)
			}
		}
		r := m.Irecv(left, 2)
		m.Isend(right, 2, grid[:2])
		m.Wait(r)
		w := m.Irecv(left, 3)
		m.Isend(right, 3, grid[:2])
		m.Wait(w)
	}
	m.Allreduce(mpisim.OpSum, []float64{sink})
	m.Allreduce(mpisim.OpMax, []float64{sink})
	faceExchange(m, 4, grid[:4])
	m.Reduce(0, mpisim.OpSum, []float64{sink})
	m.Barrier()
}

// RunSP is the Scalar-Pentadiagonal solver kernel: 150 iterations (all
// classes) of three directional sweeps, each with its own pipelined
// exchange, giving a slightly richer grammar than BT (paper Table I: 9
// rules).
const spLineLen = 32

func RunSP(ctx *Context) {
	m := ctx.MPI
	n := pick3(ctx.Class, 256, 512, 1024)
	grid := make([]float64, n-n%spLineLen)
	for i := range grid {
		grid[i] = float64(i%5) * 0.2
	}
	for i := 0; i < 4; i++ {
		m.Bcast(0, []float64{float64(n)})
	}
	m.Barrier()

	left, right := neighbors(m)
	scratch := make([]float64, spLineLen)
	adiRepeats := pick3(ctx.Class, 1, 4, 12)
	sink := 0.0
	for it := 0; it < 150; it++ {
		for dim := 0; dim < 3; dim++ {
			r1 := m.Irecv(left, 10+dim)
			r2 := m.Irecv(right, 10+dim)
			m.Isend(right, 10+dim, grid[:2])
			m.Isend(left, 10+dim, grid[:2])
			m.Wait(r1)
			m.Wait(r2)
			// Scalar-pentadiagonal solves approximated by two coupled
			// tridiagonal passes per direction.
			for rp := 0; rp < adiRepeats; rp++ {
				sink += ADISweep(grid, len(grid)/spLineLen, spLineLen, 0.25, scratch)
				sink += ADISweep(grid, len(grid)/spLineLen, spLineLen, 0.15, scratch)
			}
		}
		if it%30 == 29 {
			m.Allreduce(mpisim.OpMax, []float64{sink})
		}
	}
	m.Allreduce(mpisim.OpSum, []float64{sink})
	m.Reduce(0, mpisim.OpSum, []float64{sink})
	m.Barrier()
}

// RunCG is the Conjugate-Gradient kernel: outer eigenvalue iterations (15
// for the small class, 75 for medium and large, as in NPB) around an inner
// CG solve of 25 iterations, each exchanging partition sums with ring
// neighbours and allreducing the dot products.
func RunCG(ctx *Context) {
	m := ctx.MPI
	outer := pick3(ctx.Class, 15, 75, 75)
	n := pick3(ctx.Class, 512, 768, 1024)
	lap := NewLaplacian1D(n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = 1.0 / float64(i+1)
	}
	smooth := make([]float64, n)
	m.Bcast(0, []float64{float64(n)})
	m.Barrier()

	// Dot products are split across ranks: each rank holds a partition of
	// the vector, so every inner product is an allreduce — NPB CG's
	// signature communication pattern.
	globalDot := func(a, b []float64) float64 {
		return m.Allreduce(mpisim.OpSum, []float64{Dot(a, b)})[0]
	}
	left, right := neighbors(m)
	sink := 0.0
	for o := 0; o < outer; o++ {
		st := NewCGState(lap, rhs)
		m.Allreduce(mpisim.OpSum, []float64{st.RhoOld}) // rho
		for i := 0; i < 25; i++ {
			// Halo exchange of partition boundaries before the matvec.
			r := m.Irecv(left, 20)
			m.Isend(right, 20, st.P[:2])
			m.Wait(r)
			st.Step(globalDot)
			// Jacobi smoothing stands in for the preconditioner.
			sink += compute(smooth, sweeps(ctx.Class, 1))
		}
		m.Allreduce(mpisim.OpSum, []float64{st.ResidualNorm()}) // zeta
	}
	m.Reduce(0, mpisim.OpMax, []float64{sink})
	m.Barrier()
}

// RunEP is the Embarrassingly-Parallel kernel: pure local computation
// followed by three allreduces and a barrier — the paper records just a
// handful of events and a single grammar rule.
func RunEP(ctx *Context) {
	m := ctx.MPI
	n := pick3(ctx.Class, 1<<14, 1<<16, 1<<18)
	// Marsaglia-style pseudo-random pair counting, the spirit of NPB EP.
	state := uint64(ctx.Seed)*2862933555777941757 + 3037000493 + uint64(m.Rank())
	inside := 0.0
	for i := 0; i < n; i++ {
		state = state*2862933555777941757 + 3037000493
		x := float64(state>>11) / (1 << 53)
		state = state*2862933555777941757 + 3037000493
		y := float64(state>>11) / (1 << 53)
		if x*x+y*y <= 1 {
			inside++
		}
	}
	m.Allreduce(mpisim.OpSum, []float64{inside})
	m.Allreduce(mpisim.OpSum, []float64{float64(n)})
	m.Allreduce(mpisim.OpMax, []float64{inside})
	m.Barrier()
}

// RunFT is the 3-D FFT kernel: a transpose-based spectral solver whose
// iteration count grows with the working set (6 for small, 20 for medium and
// large, as in NPB), each iteration being an all-to-all transpose plus a
// checksum allreduce.
func RunFT(ctx *Context) {
	m := ctx.MPI
	iters := pick3(ctx.Class, 6, 20, 20)
	n := pick3(ctx.Class, 2048, 8192, 16384)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 3)
	}
	for i := 0; i < 3; i++ {
		m.Bcast(0, []float64{float64(n)})
	}
	m.Barrier()

	im := make([]float64, n)
	sink := 0.0
	repeats := pick3(ctx.Class, 1, 2, 4)
	for it := 0; it < iters; it++ {
		send := make([][]float64, m.Size())
		for d := range send {
			send[d] = data[:2]
		}
		m.Alltoall(send) // transpose
		// A real spectral step: forward transform, evolve, inverse.
		for rp := 0; rp < repeats; rp++ {
			FFT(data, im)
			for i := range data {
				data[i] *= 0.999
				im[i] *= 0.999
			}
			InverseFFT(data, im)
		}
		sink += data[n/2]
		m.Allreduce(mpisim.OpSum, []float64{sink}) // checksum
	}
	m.Barrier()
}

// RunIS is the Integer-Sort kernel: 10 iterations (all classes) of bucket
// statistics (allreduce), key redistribution (two all-to-alls, for counts
// and keys), and a final verification.
func RunIS(ctx *Context) {
	m := ctx.MPI
	maxKey := int32(pick3(ctx.Class, 1<<10, 1<<12, 1<<14))
	count := pick3(ctx.Class, 1024, 4096, 8192) * pick3(ctx.Class, 1, 6, 24)
	rng := LCG{State: uint64(ctx.Seed + int64(m.Rank()))}
	keys := make([]int32, count)
	for i := range keys {
		keys[i] = int32(rng.Intn(int(maxKey)))
	}
	m.Barrier()

	buckets := make([]float64, 4)
	for it := 0; it < 10; it++ {
		// Local bucket histogram feeds the global size exchange.
		for i := range buckets {
			buckets[i] = 0
		}
		for _, k := range keys {
			buckets[int(k)*len(buckets)/int(maxKey)]++
		}
		m.Allreduce(mpisim.OpSum, buckets) // bucket sizes
		send := make([][]float64, m.Size())
		for d := range send {
			send[d] = buckets[:2]
		}
		m.Alltoall(send) // counts
		m.Alltoall(send) // keys
		keys = CountingSort(keys, maxKey)
		// Perturb a few keys so the next iteration sorts real work again.
		for p := 0; p < len(keys)/16; p++ {
			keys[rng.Intn(len(keys))] = int32(rng.Intn(int(maxKey)))
		}
	}
	m.Allreduce(mpisim.OpSum, buckets[:1])
	m.Allreduce(mpisim.OpMax, buckets[:1])
	m.Barrier()
}

// RunLU is the SSOR solver kernel. Its outer iteration count is fixed (12),
// but each iteration performs pipelined lower/upper triangular sweeps over
// the nz grid planes — and nz grows with the working set (24/48/96). A trace
// recorded on the small class therefore mispredicts at the plane-loop
// boundaries when replayed on larger classes, exactly the behaviour the
// paper reports for LU in Fig. 8.
func RunLU(ctx *Context) {
	m := ctx.MPI
	nz := pick3(ctx.Class, 24, 48, 96)
	plane := make([]float64, pick3(ctx.Class, 128, 192, 256))
	for i := range plane {
		plane[i] = float64(i%11) * 0.3
	}
	for i := 0; i < 5; i++ {
		m.Bcast(0, []float64{float64(nz)})
	}
	m.Barrier()

	left, right := neighbors(m)
	first := m.Rank() == 0
	last := m.Rank() == m.Size()-1
	sink := 0.0
	for it := 0; it < 12; it++ {
		// Lower-triangular pipelined sweep.
		for k := 0; k < nz; k++ {
			if !first {
				m.Recv(left, 30)
			}
			sink += compute(plane, sweeps(ctx.Class, 3))
			if !last {
				m.Send(right, 30, plane[:2])
			}
		}
		// Upper-triangular pipelined sweep (reverse direction).
		for k := 0; k < nz; k++ {
			if !last {
				m.Recv(right, 31)
			}
			sink += compute(plane, sweeps(ctx.Class, 3))
			if !first {
				m.Send(left, 31, plane[:2])
			}
		}
		if it%10 == 9 {
			m.Allreduce(mpisim.OpSum, []float64{sink}) // residual norm
		}
	}
	m.Allreduce(mpisim.OpSum, []float64{sink})
	m.Barrier()
}

// RunMG is the MultiGrid kernel: V-cycles whose depth (number of grid
// levels) grows with the working set (4/5/6), each level performing a halo
// exchange. The level-loop length difference across classes produces the
// same loop-boundary mispredictions as LU.
func RunMG(ctx *Context) {
	m := ctx.MPI
	levels := pick3(ctx.Class, 9, 10, 11) // finest grid 512/1024/2048 points
	iters := pick3(ctx.Class, 4, 10, 10)
	mg := NewMGHierarchy(levels)
	mg.SetRHS(func(x float64) float64 { return x * (1 - x) })
	m.Bcast(0, []float64{float64(levels)})
	m.Barrier()

	smoothSweeps := sweeps(ctx.Class, 12)
	sink := 0.0
	for it := 0; it < iters; it++ {
		// A real V-cycle; the per-level hook places the halo exchanges
		// exactly where the original application communicates, and the
		// number of levels — hence the loop length — grows with the
		// working set, the paper's MG misprediction mechanism.
		res := mg.VCycle(smoothSweeps, smoothSweeps, func(l int, down bool) {
			tag := 40 + l
			if !down {
				tag = 90 + l
			}
			faceExchange(m, tag, mg.Levels[l].U[:2])
		})
		sink += res
		m.Allreduce(mpisim.OpSum, []float64{res}) // residual
	}
	m.Allreduce(mpisim.OpMax, []float64{sink})
	m.Barrier()
}
