package sparse

import (
	"math"
	"runtime"
	"sync"
)

// chunkRows is the row count of one unit of parallel work. Every dot
// product is summed per chunk in row order and then over chunks in
// chunk order, so results never depend on how many workers ran.
const chunkRows = 256

// BlockPCG solves A·X = B for the p columns of B at once with
// Jacobi-preconditioned conjugate gradient, starting from X = 0. A
// must be symmetric positive definite. B and the returned X are n×p
// and row-major (entry (i, c) at index i·p+c); B is not modified.
//
// Each column stops when its relative residual ‖r‖/‖b‖ — of the
// unpreconditioned residual r = b − A·x, as CG measures it — drops
// below tol, or after maxIter iterations; its SolveResult reports
// which. Columns still running share one pass over A per iteration,
// stored compacted side by side, and the rows of every pass are split
// across GOMAXPROCS workers. Every per-row sum and dot product runs in
// a fixed order, so X is bit-identical for any GOMAXPROCS.
func BlockPCG(a *Matrix, b []float64, p int, tol float64, maxIter int) ([]float64, []SolveResult) {
	n := a.Dim()
	x := make([]float64, n*p)
	res := make([]SolveResult, p)
	s := newBlockSolver(a, p)

	// Columns still iterating, compacted: column k of the work arrays
	// is column cols[k] of the system.
	cols := make([]int, p)
	for c := range cols {
		cols[c] = c
	}
	bn := make([]float64, p) // ‖b‖ per system column
	for i := 0; i < n; i++ {
		for c, v := range b[i*p : (i+1)*p] {
			bn[c] += v * v
		}
	}
	for c := range bn {
		if bn[c] = math.Sqrt(bn[c]); bn[c] == 0 {
			bn[c] = 1
		}
	}
	copy(s.r, b)
	s.run(s.initPass) // P = Z = D⁻¹B
	rz, rr := s.sum(s.part1), s.sum(s.part2)

	alpha := make([]float64, p)
	beta := make([]float64, p)
	stalled := make([]bool, p)
	for iter := 0; ; iter++ {
		// Retire the columns that converged, ran out of iterations or
		// lost their search direction (p·Ap = 0, where CG stops too).
		keep := s.keep[:0]
		for k, c := range cols {
			resid := math.Sqrt(rr[k]) / bn[c]
			if resid < tol || iter == maxIter || stalled[k] {
				res[c] = SolveResult{Iterations: iter, Residual: resid, Converged: resid < tol}
				for i := 0; i < n; i++ {
					x[i*p+c] = s.x[i*s.k+k]
				}
				continue
			}
			keep = append(keep, k)
		}
		if len(keep) == 0 {
			return x, res
		}
		if len(keep) < len(cols) {
			s.compact(keep)
			cols, rz, rr = pick(cols, keep), pick(rz, keep), pick(rr, keep)
		}

		s.run(s.mulPass) // AP = A·P
		pAp := s.sum(s.part1)
		for k := range cols {
			stalled[k] = pAp[k] == 0
			alpha[k] = 0
			if !stalled[k] {
				alpha[k] = rz[k] / pAp[k]
			}
		}
		s.alpha = alpha[:len(cols)]
		s.run(s.updatePass) // X += αP, R −= α·AP
		rzNew := s.sum(s.part1)
		rr = s.sum(s.part2)
		for k := range cols {
			beta[k] = rzNew[k] / rz[k]
		}
		rz = rzNew
		s.beta = beta[:len(cols)]
		s.run(s.directionPass) // P = Z + βP
	}
}

// pick returns v's entries at the ascending indices keep, in place.
func pick[T any](v []T, keep []int) []T {
	out := v[:0]
	for _, k := range keep {
		out = append(out, v[k])
	}
	return out
}

// blockSolver holds BlockPCG's work arrays: n rows of k active columns
// each, row-major, plus per-chunk partial dot products.
type blockSolver struct {
	a       *Matrix
	n, k    int
	invDiag []float64
	x, r    []float64
	dir, ad []float64 // search directions P and A·P
	part1   []float64 // per-chunk partial dot products, chunk-major
	part2   []float64
	keep    []int
	chunks  int
	workers int

	alpha, beta []float64 // per-column step scalars of the running pass
}

func newBlockSolver(a *Matrix, p int) *blockSolver {
	n := a.Dim()
	s := &blockSolver{
		a: a, n: n, k: p,
		invDiag: make([]float64, n),
		x:       make([]float64, n*p),
		r:       make([]float64, n*p),
		dir:     make([]float64, n*p),
		ad:      make([]float64, n*p),
		keep:    make([]int, 0, p),
		chunks:  (n + chunkRows - 1) / chunkRows,
	}
	s.part1 = make([]float64, s.chunks*p)
	s.part2 = make([]float64, s.chunks*p)
	s.workers = min(runtime.GOMAXPROCS(0), s.chunks)
	for i, d := range a.Diag() {
		if d != 0 {
			s.invDiag[i] = 1 / d
		} else {
			s.invDiag[i] = 1
		}
	}
	return s
}

// run applies pass to every chunk, spreading chunks over the workers.
func (s *blockSolver) run(pass func(chunk int)) {
	if s.workers <= 1 {
		for ch := 0; ch < s.chunks; ch++ {
			pass(ch)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ch := w; ch < s.chunks; ch += s.workers {
				pass(ch)
			}
		}(w)
	}
	wg.Wait()
}

// rows returns chunk ch's row range and zeroes its partial sums.
func (s *blockSolver) rows(ch int) (lo, hi int, p1, p2 []float64) {
	lo, hi = ch*chunkRows, min((ch+1)*chunkRows, s.n)
	p1, p2 = s.part1[ch*s.k:(ch+1)*s.k], s.part2[ch*s.k:(ch+1)*s.k]
	clear(p1)
	clear(p2)
	return lo, hi, p1, p2
}

// sum reduces per-chunk partials over chunks in chunk order.
func (s *blockSolver) sum(part []float64) []float64 {
	out := make([]float64, s.k)
	for ch := 0; ch < s.chunks; ch++ {
		for c, v := range part[ch*s.k : (ch+1)*s.k] {
			out[c] += v
		}
	}
	return out
}

// initPass sets P = Z = D⁻¹R for R = B and sums r·z and r·r.
func (s *blockSolver) initPass(ch int) {
	lo, hi, rz, rr := s.rows(ch)
	k := s.k
	for i := lo; i < hi; i++ {
		inv := s.invDiag[i]
		r, d := s.r[i*k:(i+1)*k], s.dir[i*k:(i+1)*k]
		for c, rv := range r {
			z := rv * inv
			d[c] = z
			rz[c] += rv * z
			rr[c] += rv * rv
		}
	}
}

// mulPass computes AP = A·P, row by row in CSR order, and sums p·Ap.
func (s *blockSolver) mulPass(ch int) {
	lo, hi, pap, _ := s.rows(ch)
	a, k := s.a, s.k
	for i := lo; i < hi; i++ {
		out := s.ad[i*k : (i+1)*k]
		clear(out)
		for q := a.rowPtr[i]; q < a.rowPtr[i+1]; q++ {
			v, j := a.vals[q], int(a.colIdx[q])
			for c, pj := range s.dir[j*k : (j+1)*k] {
				out[c] += v * pj
			}
		}
		for c, pv := range s.dir[i*k : (i+1)*k] {
			pap[c] += pv * out[c]
		}
	}
}

// updatePass steps X and R along P and sums r·z and r·r.
func (s *blockSolver) updatePass(ch int) {
	lo, hi, rz, rr := s.rows(ch)
	k := s.k
	for i := lo; i < hi; i++ {
		inv := s.invDiag[i]
		x, r := s.x[i*k:(i+1)*k], s.r[i*k:(i+1)*k]
		d, ad := s.dir[i*k:(i+1)*k], s.ad[i*k:(i+1)*k]
		for c, al := range s.alpha {
			x[c] += al * d[c]
			r[c] -= al * ad[c]
			rz[c] += r[c] * (r[c] * inv)
			rr[c] += r[c] * r[c]
		}
	}
}

// directionPass sets P = Z + βP.
func (s *blockSolver) directionPass(ch int) {
	lo, hi, _, _ := s.rows(ch)
	k := s.k
	for i := lo; i < hi; i++ {
		inv := s.invDiag[i]
		r, d := s.r[i*k:(i+1)*k], s.dir[i*k:(i+1)*k]
		for c, be := range s.beta {
			d[c] = r[c]*inv + be*d[c]
		}
	}
}

// compact keeps only the active columns at the ascending indices
// keep, shrinking X, R and P in place.
func (s *blockSolver) compact(keep []int) {
	k, nk := s.k, len(keep)
	for _, arr := range [][]float64{s.x, s.r, s.dir} {
		for i := 0; i < s.n; i++ {
			for dst, src := range keep {
				arr[i*nk+dst] = arr[i*k+src]
			}
		}
	}
	s.k = nk
}
