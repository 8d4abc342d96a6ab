package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewSumsDuplicatesDropsZeros(t *testing.T) {
	m := New(3, []Coord{
		{0, 1, 2}, {0, 1, 3}, // duplicates sum
		{1, 2, 0},             // zero dropped
		{2, 2, -1}, {2, 2, 1}, // sums to zero, dropped
	})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v", got)
	}
	if m.At(1, 2) != 0 || m.At(2, 2) != 0 {
		t.Error("zero entries should be absent")
	}
	if m.NNZ() != 1 {
		t.Errorf("nnz = %d", m.NNZ())
	}
}

func TestMulVec(t *testing.T) {
	// [[2,1],[0,3]] * [1,2] = [4,6]
	m := New(2, []Coord{{0, 0, 2}, {0, 1, 1}, {1, 1, 3}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 2})
	if dst[0] != 4 || dst[1] != 6 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestDiagAndRowSums(t *testing.T) {
	m := New(2, []Coord{{0, 0, 2}, {0, 1, 1}, {1, 1, 3}})
	d := m.Diag()
	if d[0] != 2 || d[1] != 3 {
		t.Errorf("diag = %v", d)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 3 {
		t.Errorf("rowsums = %v", rs)
	}
}

// symAdj returns a random symmetric non-negative adjacency matrix.
func symAdj(rng *rand.Rand, n int, density float64) *Matrix {
	var coords []Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := rng.Float64() + 0.1
				coords = append(coords, Coord{i, j, v}, Coord{j, i, v})
			}
		}
	}
	return New(n, coords)
}

func TestLaplacianRowsSumToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	adj := symAdj(rng, 20, 0.3)
	l := Laplacian(adj)
	for _, rs := range l.RowSums() {
		if math.Abs(rs) > 1e-9 {
			t.Fatalf("laplacian row sum %v != 0", rs)
		}
	}
	// Laplacian quadratic form is non-negative (PSD).
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	lx := make([]float64, 20)
	l.MulVec(lx, x)
	if q := Dot(x, lx); q < -1e-9 {
		t.Errorf("x^T L x = %v < 0", q)
	}
}

func TestAddScaled(t *testing.T) {
	a := New(2, []Coord{{0, 0, 1}, {1, 1, 1}})
	b := New(2, []Coord{{0, 1, 2}, {1, 0, 2}})
	c := AddScaled(a, 0.5, b, 3)
	if c.At(0, 0) != 4 { // 1 + 3
		t.Errorf("At(0,0) = %v", c.At(0, 0))
	}
	if c.At(0, 1) != 1 { // 0.5*2
		t.Errorf("At(0,1) = %v", c.At(0, 1))
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	AddScaled(a, 1, New(3, nil), 0)
}

// spdSystem builds the Eq. 3-shaped SPD system S + µ1 L + µ2 I.
func spdSystem(rng *rand.Rand, n int) (*Matrix, []float64) {
	adj := symAdj(rng, n, 0.25)
	lap := Laplacian(adj)
	var sc []Coord
	for i := 0; i < n/2; i++ {
		sc = append(sc, Coord{i, i, 1})
	}
	s := New(n, sc)
	a := AddScaled(s, 1.0, lap, 0.05)
	b := make([]float64, n)
	for i := 0; i < n/2; i++ {
		b[i] = rng.Float64()
	}
	return a, b
}

func TestCGSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := spdSystem(rng, 40)
	x := make([]float64, 40)
	res := CG(a, x, b, 1e-10, 2000)
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	assertResidual(t, a, x, b, 1e-7)
}

// TestJacobiSolves checks that the Jacobi-preconditioned block CG
// solves every column of a block right-hand side.
func TestJacobiSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := spdSystem(rng, 40)
	const p = 3
	block := make([]float64, 40*p)
	for i, v := range b {
		block[i*p], block[i*p+1], block[i*p+2] = v, 2*v, rng.NormFloat64()
	}
	x, res := BlockPCG(a, block, p, 1e-10, 2000)
	for c := 0; c < p; c++ {
		if !res[c].Converged {
			t.Fatalf("column %d did not converge: %+v", c, res[c])
		}
		assertResidual(t, a, column(x, p, c), column(block, p, c), 1e-7)
	}
}

// TestCGAndJacobiAgree checks the Jacobi-preconditioned block CG
// against plain CG.
func TestCGAndJacobiAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := spdSystem(rng, 30)
	x1 := make([]float64, 30)
	CG(a, x1, b, 1e-12, 5000)
	x2, _ := BlockPCG(a, b, 1, 1e-12, 5000)
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-9 {
			t.Fatalf("solution mismatch at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

// TestSolversAgree property-tests that CG and the block PCG converge to
// the same solution on random SPD diagonally dominant systems.
func TestSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		a := diagDominant(rng, n)
		const p = 2
		block := make([]float64, n*p)
		for i := range block {
			block[i] = rng.NormFloat64()
		}
		x, _ := BlockPCG(a, block, p, 1e-12, 20_000)
		for c := 0; c < p; c++ {
			xcg := make([]float64, n)
			CG(a, xcg, column(block, p, c), 1e-12, 20_000)
			for i := 0; i < n; i++ {
				if math.Abs(xcg[i]-x[i*p+c]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPCGMatchesCGOnLaplacians compares every column of the block
// solve with a reference CG solve on random Eq. 3-shaped Laplacian
// systems, with a zero column among them: each column converges on its
// own, the zero column at once to exactly zero.
func TestBlockPCGMatchesCGOnLaplacians(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(300)
		a, _ := spdSystem(rng, n)
		const p, zero = 5, 2
		block := make([]float64, n*p)
		for i := 0; i < n/2; i++ {
			for c := 0; c < p; c++ {
				if c != zero && rng.Float64() < 0.5 {
					block[i*p+c] = 1
				}
			}
		}
		x, res := BlockPCG(a, block, p, 1e-10, 2000)
		for c := 0; c < p; c++ {
			if !res[c].Converged || res[c].Residual >= 1e-10 {
				t.Fatalf("trial %d column %d: %+v", trial, c, res[c])
			}
			if c == zero {
				if res[c].Iterations != 0 || slices.ContainsFunc(column(x, p, c), func(v float64) bool { return v != 0 }) {
					t.Fatalf("trial %d: zero column took %d iterations to %v", trial, res[c].Iterations, column(x, p, c))
				}
				continue
			}
			if res[c].Iterations == 0 {
				t.Fatalf("trial %d column %d: no iterations", trial, c)
			}
			want := make([]float64, n)
			CG(a, want, column(block, p, c), 1e-12, 5000)
			for i, w := range want {
				if math.Abs(x[i*p+c]-w) > 1e-7 {
					t.Fatalf("trial %d column %d row %d: %v, CG %v", trial, c, i, x[i*p+c], w)
				}
			}
		}
	}
}

// TestBlockPCGColumnsIndependent checks that solving columns together —
// with some retiring early and the rest compacted — gives each column
// bit for bit what solving it alone does, iteration counts included.
func TestBlockPCGColumnsIndependent(t *testing.T) {
	a, block, p := cliqueSystem(rand.New(rand.NewSource(2)))
	x, res := BlockPCG(a, block, p, 1e-8, 2000)
	iters := map[int]bool{}
	for c := 0; c < p; c++ {
		xc, rc := BlockPCG(a, column(block, p, c), 1, 1e-8, 2000)
		if rc[0] != res[c] {
			t.Fatalf("column %d: %+v together, %+v alone", c, res[c], rc[0])
		}
		for i, v := range xc {
			if math.Float64bits(v) != math.Float64bits(x[i*p+c]) {
				t.Fatalf("column %d row %d: %v together, %v alone", c, i, x[i*p+c], v)
			}
		}
		iters[res[c].Iterations] = true
	}
	if len(iters) < 3 {
		t.Fatalf("columns retired at only %d distinct iterations; compaction is untested", len(iters))
	}
}

// TestBlockPCGMaxIterCap checks the per-column iteration cap.
func TestBlockPCGMaxIterCap(t *testing.T) {
	a, b := spdSystem(rand.New(rand.NewSource(9)), 60)
	block := make([]float64, 60*2)
	for i, v := range b {
		block[i*2] = v // column 1 stays zero
	}
	_, res := BlockPCG(a, block, 2, 1e-14, 3)
	if res[0].Iterations != 3 || res[0].Converged || res[0].Residual < 1e-14 {
		t.Fatalf("capped column: %+v", res[0])
	}
	if res[1].Iterations != 0 || !res[1].Converged {
		t.Fatalf("zero column: %+v", res[1])
	}
}

// TestBlockPCGPreconditionerHalvesIterations is a deterministic count:
// on a similarity-graph system whose degrees vary widely, as transfer's
// do, the Jacobi preconditioner must at least halve CG's iterations. A
// dropped preconditioner fails it.
func TestBlockPCGPreconditionerHalvesIterations(t *testing.T) {
	a, block, p := cliqueSystem(rand.New(rand.NewSource(1)))
	_, res := BlockPCG(a, block, p, 1e-8, 2000)
	pcg, cg := 0, 0
	for c := 0; c < p; c++ {
		pcg += res[c].Iterations
		cg += CG(a, make([]float64, a.Dim()), column(block, p, c), 1e-8, 2000).Iterations
	}
	t.Logf("n=%d: block PCG %d iterations, CG %d", a.Dim(), pcg, cg)
	if 2*pcg > cg {
		t.Fatalf("block PCG took %d iterations, CG %d: want at most half", pcg, cg)
	}
}

// TestBlockPCGDeterministicAcrossGOMAXPROCS requires a bit-identical X
// whatever the worker count, on a system of several row chunks.
func TestBlockPCGDeterministicAcrossGOMAXPROCS(t *testing.T) {
	a, block, p := cliqueSystem(rand.New(rand.NewSource(3)))
	if a.Dim() < 3*chunkRows {
		t.Fatalf("n=%d spans too few chunks", a.Dim())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	x1, _ := BlockPCG(a, block, p, 1e-8, 2000)
	runtime.GOMAXPROCS(4)
	x4, _ := BlockPCG(a, block, p, 1e-8, 2000)
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x4[i]) {
			t.Fatalf("X[%d]: %v with GOMAXPROCS 1, %v with 4", i, x1[i], x4[i])
		}
	}
}

// column returns column c of an n×p row-major block.
func column(block []float64, p, c int) []float64 {
	out := make([]float64, len(block)/p)
	for i := range out {
		out[i] = block[i*p+c]
	}
	return out
}

// diagDominant builds a random symmetric strictly diagonally dominant
// matrix like the (S + µ1·L + µ2·I) systems of Eq. 3.
func diagDominant(rng *rand.Rand, n int) *Matrix {
	var coords []Coord
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.Float64() - 0.5
			coords = append(coords, Coord{Row: i, Col: j, Val: v}, Coord{Row: j, Col: i, Val: v})
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		coords = append(coords, Coord{Row: i, Col: i, Val: rowAbs[i] + 1})
	}
	return New(n, coords)
}

func TestCGZeroRHS(t *testing.T) {
	a, _ := spdSystem(rand.New(rand.NewSource(1)), 10)
	b := make([]float64, 10)
	x := make([]float64, 10)
	res := CG(a, x, b, 1e-10, 100)
	if !res.Converged {
		t.Fatalf("zero RHS should converge instantly: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("solution of zero system should be zero")
		}
	}
}

func assertResidual(t *testing.T, a *Matrix, x, b []float64, tol float64) {
	t.Helper()
	ax := make([]float64, len(x))
	a.MulVec(ax, x)
	var rr float64
	for i := range ax {
		d := b[i] - ax[i]
		rr += d * d
	}
	if r := math.Sqrt(rr); r > tol {
		t.Errorf("residual %v > %v", r, tol)
	}
}

// TestDotNormProperties checks algebraic identities with testing/quick.
func TestDotNormProperties(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, math.Mod(x, 1e3))
			}
		}
		n := Norm2(v)
		return n >= 0 && math.Abs(n*n-Dot(v, v)) <= 1e-6*(1+n*n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cliqueSystem builds an Eq. 3 system S + L + 0.01·I on a similarity
// graph shaped like transfer's: 24 cliques of near-duplicate edges with
// heavy-tailed sizes from 1 to 149, each linked to a random earlier
// clique, one labeled row in every third clique, and a 13-column 0/1
// right-hand side on the labeled rows. The degrees, and so the
// diagonal, vary by two orders of magnitude — the case the Jacobi
// preconditioner is for.
func cliqueSystem(rng *rand.Rand) (*Matrix, []float64, int) {
	const p = 13
	var coords []Coord
	var starts []int
	n := 0
	for k := 0; k < 24; k++ {
		size := 1 + int(math.Exp(5*rng.Float64()))
		starts = append(starts, n)
		for i := n; i < n+size; i++ {
			for j := i + 1; j < n+size; j++ {
				v := 0.7 + 0.3*rng.Float64()
				coords = append(coords, Coord{i, j, v}, Coord{j, i, v})
			}
		}
		if k > 0 {
			o := starts[rng.Intn(k)]
			coords = append(coords, Coord{o, n, 0.7}, Coord{n, o, 0.7})
		}
		n += size
	}
	a := AddScaled(New(n, nil), 1, Laplacian(New(n, coords)), 0.01)
	var diag []Coord
	b := make([]float64, n*p)
	for k, s := range starts {
		if k%3 == 0 {
			diag = append(diag, Coord{s, s, 1})
			b[s*p+rng.Intn(p)] = 1
			b[s*p+rng.Intn(p)] = 1
		}
	}
	return AddScaled(New(n, diag), 1, a, 0), b, p
}
