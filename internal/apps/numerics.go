package apps

import "math"

// This file holds the real numerical kernels the application proxies run
// between communication events: a radix-2 FFT (FT), a CSR sparse
// matrix-vector product and conjugate-gradient step (CG, miniFE), and a
// counting sort (IS). They are small but real — the proxies exercise genuine
// computation with verifiable results, not spin loops.

// FFT performs an in-place radix-2 Cooley-Tukey transform of the complex
// signal (re, im). The length must be a power of two.
func FFT(re, im []float64) {
	fftDir(re, im, false)
}

// InverseFFT performs the inverse transform (including the 1/n scaling).
func InverseFFT(re, im []float64) {
	fftDir(re, im, true)
	n := float64(len(re))
	for i := range re {
		re[i] /= n
		im[i] /= n
	}
}

func fftDir(re, im []float64, inverse bool) {
	n := len(re)
	if n == 0 || n&(n-1) != 0 {
		// pythia:allow panic-policy — a caller-contract panic on a
		// simulator numerics API: a wrong FFT length is a programming error
		// the real library aborts on too, and a "pythia: internal" prefix
		// would mislabel a caller bug as an oracle bug.
		panic("apps: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cr, ci := 1.0, 0.0
			for k := 0; k < length/2; k++ {
				i, j := start+k, start+k+length/2
				xr := re[j]*cr - im[j]*ci
				xi := re[j]*ci + im[j]*cr
				re[j], im[j] = re[i]-xr, im[i]-xi
				re[i], im[i] = re[i]+xr, im[i]+xi
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
}

// CSRMatrix is a square sparse matrix in compressed-sparse-row form.
type CSRMatrix struct {
	N      int
	RowPtr []int32
	ColIdx []int32
	Values []float64
}

// NewLaplacian1D builds the tridiagonal [−1, 2, −1] operator of size n, the
// canonical symmetric positive-definite test matrix.
func NewLaplacian1D(n int) *CSRMatrix {
	m := &CSRMatrix{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		if i > 0 {
			m.ColIdx = append(m.ColIdx, int32(i-1))
			m.Values = append(m.Values, -1)
		}
		m.ColIdx = append(m.ColIdx, int32(i))
		m.Values = append(m.Values, 2)
		if i < n-1 {
			m.ColIdx = append(m.ColIdx, int32(i+1))
			m.Values = append(m.Values, -1)
		}
		m.RowPtr[i+1] = int32(len(m.Values))
	}
	return m
}

// MatVec computes y = A·x.
func (m *CSRMatrix) MatVec(y, x []float64) {
	for i := 0; i < m.N; i++ {
		sum := 0.0
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			sum += m.Values[p] * x[m.ColIdx[p]]
		}
		y[i] = sum
	}
}

// Dot returns the inner product of two vectors.
func Dot(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Axpy computes y += alpha·x.
func Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// CGState carries one conjugate-gradient solve between iterations, so that
// the application proxies can interleave real CG steps with communication.
type CGState struct {
	A       *CSRMatrix
	X, R, P []float64
	Ap      []float64
	RhoOld  float64
}

// NewCGState prepares the solve A·x = b with x0 = 0.
func NewCGState(a *CSRMatrix, b []float64) *CGState {
	st := &CGState{
		A:  a,
		X:  make([]float64, a.N),
		R:  append([]float64(nil), b...),
		P:  append([]float64(nil), b...),
		Ap: make([]float64, a.N),
	}
	st.RhoOld = Dot(st.R, st.R)
	return st
}

// Step performs one CG iteration and returns the squared residual norm.
// localDot, when non-nil, replaces the two inner products (the hook the MPI
// proxy uses to split dot products across ranks via allreduce).
func (st *CGState) Step(localDot func(a, b []float64) float64) float64 {
	dot := Dot
	if localDot != nil {
		dot = localDot
	}
	st.A.MatVec(st.Ap, st.P)
	pap := dot(st.P, st.Ap)
	if pap == 0 {
		return 0
	}
	alpha := st.RhoOld / pap
	Axpy(alpha, st.P, st.X)
	Axpy(-alpha, st.Ap, st.R)
	rho := dot(st.R, st.R)
	beta := rho / st.RhoOld
	for i := range st.P {
		st.P[i] = st.R[i] + beta*st.P[i]
	}
	st.RhoOld = rho
	return rho
}

// ResidualNorm returns the current ‖r‖₂.
func (st *CGState) ResidualNorm() float64 { return math.Sqrt(st.RhoOld) }

// CountingSort sorts keys (all in [0, maxKey)) and returns the sorted slice,
// the real work behind the IS proxy.
func CountingSort(keys []int32, maxKey int32) []int32 {
	counts := make([]int32, maxKey)
	for _, k := range keys {
		counts[k]++
	}
	out := make([]int32, 0, len(keys))
	for k := int32(0); k < maxKey; k++ {
		for c := int32(0); c < counts[k]; c++ {
			out = append(out, k)
		}
	}
	return out
}

// LCG is the deterministic linear congruential generator the proxies use for
// data-dependent behaviour, so runs are reproducible per seed.
type LCG struct{ State uint64 }

// Next returns the next raw 64-bit value.
func (l *LCG) Next() uint64 {
	l.State = l.State*6364136223846793005 + 1442695040888963407
	return l.State
}

// Intn returns a value in [0, n).
func (l *LCG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int((l.Next() >> 11) % uint64(n))
}

// Float64 returns a value in [0, 1).
func (l *LCG) Float64() float64 {
	return float64(l.Next()>>11) / (1 << 53)
}
