package transfer

import (
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/sparse"
)

// Config tunes the transduction learning.
type Config struct {
	// AMR is the adjacency-matrix reduction threshold (paper default
	// 0.7): similarities below it are dropped.
	AMR float64
	// Mu1 weighs the Laplacian smoothing term of Eq. 2, Mu2 the L2
	// regularizer.
	Mu1, Mu2 float64
	// Tol and MaxIter bound the iterative solve, per column: it stops
	// once the relative residual drops below Tol.
	Tol     float64
	MaxIter int
	// NullTol is the minimum propagated master probability below which
	// a B-edge is declared null (gets fastest paths instead).
	NullTol float64
}

// DefaultConfig returns the configuration used in the paper's main
// experiments (amr = 0.7).
func DefaultConfig() Config {
	return Config{AMR: 0.7, Mu1: 1.0, Mu2: 0.01, Tol: 1e-8, MaxIter: 2000, NullTol: 1e-4}
}

// Labeled is one training example: a region edge index (into
// Graph.Edges) with its learned preference.
type Labeled struct {
	EdgeID int
	Pref   pref.Preference
}

// Result holds the transfer output.
type Result struct {
	// Pref maps region-edge ID -> transferred preference, for every
	// *unlabeled* edge the propagation could label.
	Pref map[int]pref.Preference
	// Null lists unlabeled edges the propagation could not label.
	Null []int
	// Yhat is the propagated probability matrix, row-indexed like the
	// edge ordering passed to Run (labeled first); exposed for tests and
	// the Fig. 9 experiments.
	Yhat [][]float64
	// EdgeOrder maps Yhat row -> region-edge ID.
	EdgeOrder []int
	// SolveIterations sums, over the p columns, the iterations each
	// column ran in the block solve before it converged (or hit
	// MaxIter).
	SolveIterations int
}

// NullRate returns the share of unlabeled edges left null.
func (r *Result) NullRate() float64 {
	unlabeled := 0
	for range r.Pref {
		unlabeled++
	}
	unlabeled += len(r.Null)
	if unlabeled == 0 {
		return 0
	}
	return float64(len(r.Null)) / float64(unlabeled)
}

// Run performs transduction learning over the region graph: the labeled
// edges keep their preferences (first term of Eq. 2), preferences spread
// along the similarity graph (second term), and L2 regularization damps
// the result (third term). Unlabeled region edges — typically all
// B-edges, or held-out T-edges in the Fig. 9 experiments — receive
// transferred preferences.
func Run(g *region.Graph, labeled []Labeled, targets []int, cfg Config) Result {
	// Order: labeled edges first (so S is a prefix diagonal), then
	// targets.
	order := make([]int, 0, len(labeled)+len(targets))
	rowOf := make(map[int]int, len(labeled)+len(targets))
	for _, l := range labeled {
		rowOf[l.EdgeID] = len(order)
		order = append(order, l.EdgeID)
	}
	for _, t := range targets {
		if _, dup := rowOf[t]; dup {
			continue
		}
		rowOf[t] = len(order)
		order = append(order, t)
	}
	n := len(order)
	p := NumColumns()

	feats := make([]Features, n)
	for i, id := range order {
		feats[i] = EdgeFeatures(g, g.Edges[id])
	}
	a := systemMatrix(feats, len(labeled), cfg)

	// Solve A·Ŷ = S·Y for all p columns at once; only labeled rows of
	// S·Y are nonzero.
	sy := make([]float64, n*p)
	for i, l := range labeled {
		for _, c := range Encode(l.Pref) {
			sy[i*p+c] = 1
		}
	}
	x, cols := sparse.BlockPCG(a, sy, p, cfg.Tol, cfg.MaxIter)
	iters := 0
	for _, res := range cols {
		iters += res.Iterations
	}
	yhat := make([][]float64, n)
	for i := range yhat {
		yhat[i] = x[i*p : (i+1)*p : (i+1)*p]
	}

	out := Result{
		Pref:            make(map[int]pref.Preference),
		Yhat:            yhat,
		EdgeOrder:       order,
		SolveIterations: iters,
	}
	labeledSet := make(map[int]bool, len(labeled))
	for _, l := range labeled {
		labeledSet[l.EdgeID] = true
	}
	for i, id := range order {
		if labeledSet[id] {
			continue
		}
		if pf, ok := Decode(yhat[i], cfg.NullTol); ok {
			out.Pref[id] = pf
		} else {
			out.Null = append(out.Null, id)
		}
	}
	return out
}

// systemMatrix assembles the Eq. 3 system A = S + µ1·L + µ2·I straight
// into CSR, for edges with features feats of which the first nLabeled
// are labeled. L = D − M is the Laplacian of the similarity graph M:
// every pair with reSim ≥ amr, weighted by its similarity.
func systemMatrix(feats []Features, nLabeled int, cfg Config) *sparse.Matrix {
	n := len(feats)
	// The pair scan yields each row's neighbours in ascending column
	// order: those below the diagonal (from earlier rows' scans), then
	// those above it.
	type pair struct {
		i, j int32
		sim  float64
	}
	var pairs []pair
	below := make([]int32, n) // neighbours below the diagonal, per row
	rowPtr := make([]int32, n+1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s := ReSim(feats[i], feats[j]); s >= cfg.AMR {
				pairs = append(pairs, pair{int32(i), int32(j), s})
				below[j]++
				rowPtr[i+1]++
				rowPtr[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i] + 1 // + the diagonal
	}
	nnz := rowPtr[n]
	colIdx := make([]int32, nnz)
	vals := make([]float64, nnz)
	next := make([]int32, n) // next free slot per row
	copy(next, rowPtr[:n])
	deg := make([]float64, n)
	put := func(row, col int32, sim float64) {
		if next[row] == rowPtr[row]+below[row] {
			next[row]++ // skip the diagonal's slot
		}
		colIdx[next[row]], vals[next[row]] = col, -cfg.Mu1*sim
		deg[row] += sim
		next[row]++
	}
	for _, pr := range pairs {
		put(pr.i, pr.j, pr.sim)
		put(pr.j, pr.i, pr.sim)
	}
	for i := 0; i < n; i++ {
		d := rowPtr[i] + below[i]
		s := 0.0
		if i < nLabeled {
			s = 1
		}
		colIdx[d], vals[d] = int32(i), s+cfg.Mu1*deg[i]+cfg.Mu2
	}
	return sparse.FromCSR(n, rowPtr, colIdx, vals)
}

// AdjacencyDensity reports, for diagnostics and the Fig. 9(b)
// experiment, the number of similarity-graph edges that survive a given
// amr threshold over the given region edges.
func AdjacencyDensity(g *region.Graph, edgeIDs []int, amr float64) int {
	feats := make([]Features, len(edgeIDs))
	for i, id := range edgeIDs {
		feats[i] = EdgeFeatures(g, g.Edges[id])
	}
	count := 0
	for i := range feats {
		for j := i + 1; j < len(feats); j++ {
			if ReSim(feats[i], feats[j]) >= amr {
				count++
			}
		}
	}
	return count
}

// PathFinder materializes preferences into paths. It exists as an
// interface so tests can stub path construction.
type PathFinder interface {
	// FindPath returns a path from s to d honoring the preference.
	FindPath(p pref.Preference, s, d roadnet.VertexID) (roadnet.Path, bool)
	// FastestPath returns the plain fastest path.
	FastestPath(s, d roadnet.VertexID) (roadnet.Path, bool)
}

// Materialize fills the path sets of the target region edges (Step 3,
// Section V-C): for every pair of one transfer center from each region,
// the preference-aware Dijkstra constructs a path; edges whose
// preference is null get fastest paths, as in the paper. It returns the
// number of paths attached.
func Materialize(g *region.Graph, res Result, finder PathFinder) int {
	attached := 0
	addPair := func(e *region.Edge, from int, s, d roadnet.VertexID, pf pref.Preference, hasPref bool) {
		var path roadnet.Path
		var ok bool
		if hasPref {
			path, ok = finder.FindPath(pf, s, d)
		} else {
			path, ok = finder.FastestPath(s, d)
		}
		if ok && len(path) >= 2 {
			e.AddPath(from, path, false)
			attached++
		}
	}
	fill := func(id int, pf pref.Preference, hasPref bool) {
		e := g.Edges[id]
		e.Pref, e.HasPref = pf, hasPref
		tc1 := g.TransferCenters(e.R1)
		tc2 := g.TransferCenters(e.R2)
		for _, a := range tc1 {
			for _, b := range tc2 {
				addPair(e, e.R1, a, b, pf, hasPref)
				addPair(e, e.R2, b, a, pf, hasPref)
			}
		}
	}
	for id, pf := range res.Pref {
		fill(id, pf, true)
	}
	for _, id := range res.Null {
		fill(id, pref.Preference{}, false)
	}
	return attached
}
