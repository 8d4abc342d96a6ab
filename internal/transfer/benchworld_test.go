package transfer_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/transfer"
	"repro/internal/worldgen"
)

// benchWorldSystem returns the bench world's region graph — the world
// of the root benchmarks — with its learned T-edges as labels and every
// other region edge as a target.
func benchWorldSystem(t *testing.T) (*region.Graph, []transfer.Labeled, []int) {
	t.Helper()
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 5))
	r, err := core.Build(w.Road, w.Train, core.Options{SkipMapMatching: true})
	if err != nil {
		t.Fatal(err)
	}
	rg := r.RegionGraph()
	var labeled []transfer.Labeled
	var targets []int
	for _, e := range rg.Edges {
		if e.Kind == region.TEdge && e.HasPref {
			labeled = append(labeled, transfer.Labeled{EdgeID: e.ID, Pref: e.Pref})
		} else {
			targets = append(targets, e.ID)
		}
	}
	if len(labeled) == 0 || len(targets) == 0 {
		t.Fatal("degenerate region graph")
	}
	return rg, labeled, targets
}

// TestRunMatchesReferenceOnBenchWorld checks the block solve against
// the reference unpreconditioned per-column CG on the bench world:
// identical decoded preferences and Null set, in fewer iterations. (The
// bench world's system is small, 187 rows; at ci scale, 2,989 rows,
// the counts are 421 against 1,478.)
func TestRunMatchesReferenceOnBenchWorld(t *testing.T) {
	rg, labeled, targets := benchWorldSystem(t)
	cfg := transfer.DefaultConfig()
	got := transfer.Run(rg, labeled, targets, cfg)
	want := transfer.ReferenceRun(rg, labeled, targets, cfg)
	transfer.AssertSameTransfer(t, got, want)
	t.Logf("%d rows: %d block iterations, reference %d; %d transferred, %d null",
		len(got.EdgeOrder), got.SolveIterations, want.SolveIterations, len(got.Pref), len(got.Null))
	if got.SolveIterations >= want.SolveIterations {
		t.Fatalf("block solve took %d iterations, reference CG %d: want fewer", got.SolveIterations, want.SolveIterations)
	}
}

// TestRunDeterministicAcrossGOMAXPROCS requires a bit-identical Ŷ
// whatever the worker count. (sparse's own test covers systems of many
// row chunks.)
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rg, labeled, targets := benchWorldSystem(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs [][][]float64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		runs = append(runs, transfer.Run(rg, labeled, targets, transfer.DefaultConfig()).Yhat)
	}
	for i := range runs[0] {
		for c := range runs[0][i] {
			if math.Float64bits(runs[0][i][c]) != math.Float64bits(runs[1][i][c]) {
				t.Fatalf("Yhat[%d][%d]: %v with GOMAXPROCS 1, %v with 4", i, c, runs[0][i][c], runs[1][i][c])
			}
		}
	}
}
