package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Coord is one (row, col, value) triplet used to assemble a matrix.
type Coord struct {
	Row, Col int
	Val      float64
}

// Matrix is an immutable CSR sparse matrix.
type Matrix struct {
	n      int
	rowPtr []int32
	colIdx []int32
	vals   []float64
}

// New assembles an n×n CSR matrix from triplets. Duplicate (row, col)
// entries are summed. Entries with zero value are dropped.
func New(n int, coords []Coord) *Matrix {
	sorted := make([]Coord, 0, len(coords))
	for _, c := range coords {
		if c.Val != 0 {
			sorted = append(sorted, c)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &Matrix{n: n, rowPtr: make([]int32, n+1)}
	for i := 0; i < len(sorted); {
		j := i
		v := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		if v != 0 {
			m.colIdx = append(m.colIdx, int32(sorted[i].Col))
			m.vals = append(m.vals, v)
			m.rowPtr[sorted[i].Row+1]++
		}
		i = j
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// FromCSR wraps CSR arrays as an n×n Matrix without copying them: row
// i holds the entries rowPtr[i]..rowPtr[i+1]-1 of colIdx and vals, with
// strictly increasing columns. The caller must not modify the arrays
// afterwards.
func FromCSR(n int, rowPtr, colIdx []int32, vals []float64) *Matrix {
	if len(rowPtr) != n+1 || len(colIdx) != len(vals) || int(rowPtr[n]) != len(vals) {
		panic(fmt.Sprintf("sparse.FromCSR: n=%d, %d row pointers, %d columns, %d values", n, len(rowPtr), len(colIdx), len(vals)))
	}
	return &Matrix{n: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// Dim returns the matrix dimension n.
func (m *Matrix) Dim() int { return m.n }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j). O(log row-degree).
func (m *Matrix) At(i, j int) float64 {
	lo, hi := int(m.rowPtr[i]), int(m.rowPtr[i+1])
	k := lo + sort.Search(hi-lo, func(k int) bool { return int(m.colIdx[lo+k]) >= j })
	if k < hi && int(m.colIdx[k]) == j {
		return m.vals[k]
	}
	return 0
}

// MulVec computes dst = M·x. dst and x must have length Dim and must not
// alias.
func (m *Matrix) MulVec(dst, x []float64) {
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
}

// Diag returns a copy of the diagonal.
func (m *Matrix) Diag() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// RowSums returns the vector of row sums, used to build degree matrices.
func (m *Matrix) RowSums() []float64 {
	d := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k]
		}
		d[i] = s
	}
	return d
}

// Laplacian returns L = D - M where D is the diagonal degree matrix of
// row sums — the unnormalized graph Laplacian of Eq. 2.
func Laplacian(adj *Matrix) *Matrix {
	n := adj.Dim()
	coords := make([]Coord, 0, adj.NNZ()+n)
	deg := adj.RowSums()
	for i := 0; i < n; i++ {
		for k := adj.rowPtr[i]; k < adj.rowPtr[i+1]; k++ {
			coords = append(coords, Coord{Row: i, Col: int(adj.colIdx[k]), Val: -adj.vals[k]})
		}
		coords = append(coords, Coord{Row: i, Col: i, Val: deg[i]})
	}
	return New(n, coords)
}

// AddScaled returns A + alpha·B + beta·I for same-dimension matrices;
// it assembles the system matrix S + µ1·L + µ2·I of Eq. 3.
func AddScaled(a *Matrix, alpha float64, b *Matrix, beta float64) *Matrix {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("sparse.AddScaled: dims %d != %d", a.Dim(), b.Dim()))
	}
	n := a.Dim()
	coords := make([]Coord, 0, a.NNZ()+b.NNZ()+n)
	for i := 0; i < n; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			coords = append(coords, Coord{Row: i, Col: int(a.colIdx[k]), Val: a.vals[k]})
		}
		for k := b.rowPtr[i]; k < b.rowPtr[i+1]; k++ {
			coords = append(coords, Coord{Row: i, Col: int(b.colIdx[k]), Val: alpha * b.vals[k]})
		}
		if beta != 0 {
			coords = append(coords, Coord{Row: i, Col: i, Val: beta})
		}
	}
	return New(n, coords)
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// SolveResult reports how an iterative solve went.
type SolveResult struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves A·x = b for symmetric positive-definite A using conjugate
// gradient, overwriting x (which may start at zero). It stops when the
// relative residual drops below tol or after maxIter iterations.
func CG(a *Matrix, x, b []float64, tol float64, maxIter int) SolveResult {
	n := a.Dim()
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rs := Dot(r, r)
	bn := Norm2(b)
	if bn == 0 {
		bn = 1
	}
	res := SolveResult{}
	for res.Iterations = 0; res.Iterations < maxIter; res.Iterations++ {
		if math.Sqrt(rs)/bn < tol {
			res.Converged = true
			break
		}
		a.MulVec(ap, p)
		denom := Dot(p, ap)
		if denom == 0 {
			break
		}
		alpha := rs / denom
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsNew := Dot(r, r)
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	res.Residual = math.Sqrt(rs) / bn
	if res.Residual < tol {
		res.Converged = true
	}
	return res
}
