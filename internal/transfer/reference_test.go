package transfer

import (
	"math"
	"slices"
	"testing"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/sparse"
)

// ReferenceRun and AssertSameTransfer serve the external bench-world
// test.
var (
	ReferenceRun       = referenceRun
	AssertSameTransfer = assertSameTransfer
)

// referenceSystem assembles the Eq. 3 system from triplets, as three
// sorted sparse.New assemblies: M, then L = D − M, then S + µ1·L + µ2·I.
func referenceSystem(feats []Features, nLabeled int, cfg Config) *sparse.Matrix {
	n := len(feats)
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s := ReSim(feats[i], feats[j]); s >= cfg.AMR {
				coords = append(coords, sparse.Coord{Row: i, Col: j, Val: s}, sparse.Coord{Row: j, Col: i, Val: s})
			}
		}
	}
	lap := sparse.Laplacian(sparse.New(n, coords))
	sCoords := make([]sparse.Coord, nLabeled)
	for i := range sCoords {
		sCoords[i] = sparse.Coord{Row: i, Col: i, Val: 1}
	}
	return sparse.AddScaled(sparse.New(n, sCoords), cfg.Mu1, lap, cfg.Mu2)
}

// referenceRun is Run with the reference system and an unpreconditioned
// sparse.CG solve per column.
func referenceRun(g *region.Graph, labeled []Labeled, targets []int, cfg Config) Result {
	var order []int
	seen := map[int]bool{}
	for _, l := range labeled {
		order = append(order, l.EdgeID)
		seen[l.EdgeID] = true
	}
	for _, t := range targets {
		if !seen[t] {
			seen[t] = true
			order = append(order, t)
		}
	}
	n, p := len(order), NumColumns()
	feats := make([]Features, n)
	for i, id := range order {
		feats[i] = EdgeFeatures(g, g.Edges[id])
	}
	a := referenceSystem(feats, len(labeled), cfg)
	out := Result{Pref: map[int]pref.Preference{}, EdgeOrder: order, Yhat: make([][]float64, n)}
	for i := range out.Yhat {
		out.Yhat[i] = make([]float64, p)
	}
	for c := 0; c < p; c++ {
		b, x := make([]float64, n), make([]float64, n)
		for i, l := range labeled {
			if slices.Contains(Encode(l.Pref), c) {
				b[i] = 1
			}
		}
		out.SolveIterations += sparse.CG(a, x, b, cfg.Tol, cfg.MaxIter).Iterations
		for i := range x {
			out.Yhat[i][c] = x[i]
		}
	}
	for i := len(labeled); i < n; i++ {
		if pf, ok := Decode(out.Yhat[i], cfg.NullTol); ok {
			out.Pref[order[i]] = pf
		} else {
			out.Null = append(out.Null, order[i])
		}
	}
	return out
}

// assertSameTransfer requires identical decoded preferences and Null
// sets, and Ŷ entries within 1e-6 of the reference.
func assertSameTransfer(t testing.TB, got, want Result) {
	t.Helper()
	if !slices.Equal(got.EdgeOrder, want.EdgeOrder) {
		t.Fatalf("edge order %v, reference %v", got.EdgeOrder, want.EdgeOrder)
	}
	if len(got.Pref) != len(want.Pref) {
		t.Fatalf("%d transferred preferences, reference %d", len(got.Pref), len(want.Pref))
	}
	for id, pf := range want.Pref {
		if got.Pref[id] != pf {
			t.Fatalf("edge %d: preference %v, reference %v", id, got.Pref[id], pf)
		}
	}
	if !slices.Equal(got.Null, want.Null) {
		t.Fatalf("null set %v, reference %v", got.Null, want.Null)
	}
	for i := range want.Yhat {
		for c := range want.Yhat[i] {
			if d := math.Abs(got.Yhat[i][c] - want.Yhat[i][c]); d > 1e-6 {
				t.Fatalf("Yhat[%d][%d] = %v, reference %v", i, c, got.Yhat[i][c], want.Yhat[i][c])
			}
		}
	}
}

// TestSystemMatrixMatchesTripletAssembly checks the direct CSR
// assembly against the triplet one, entry by entry.
func TestSystemMatrixMatchesTripletAssembly(t *testing.T) {
	_, rg := transferWorld(t)
	feats := make([]Features, len(rg.Edges))
	for i, e := range rg.Edges {
		feats[i] = EdgeFeatures(rg, e)
	}
	for _, amr := range []float64{0, 0.3, 0.7, 1.01} {
		for _, nLabeled := range []int{0, 1, len(feats)} {
			cfg := DefaultConfig()
			cfg.AMR = amr
			got, want := systemMatrix(feats, nLabeled, cfg), referenceSystem(feats, nLabeled, cfg)
			if got.NNZ() != want.NNZ() {
				t.Fatalf("amr %v: nnz %d, reference %d", amr, got.NNZ(), want.NNZ())
			}
			for i := 0; i < len(feats); i++ {
				for j := 0; j < len(feats); j++ {
					if g, w := got.At(i, j), want.At(i, j); math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
						t.Fatalf("amr %v, %d labeled: A[%d][%d] = %v, reference %v", amr, nLabeled, i, j, g, w)
					}
				}
			}
		}
	}
}
