package exp

import (
	"strings"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ablWorld builds a compact world for the ablation experiments.
func ablWorld(tb testing.TB) *World {
	tb.Helper()
	road := roadnet.Generate(roadnet.Tiny(61))
	return NewCustom("abl", road, traj.D2Like(61, 500), []float64{1, 2, 4, 10}, Config{Seed: 61})
}

func TestAblationClustering(t *testing.T) {
	w := ablWorld(t)
	rows := AblationClusteringCompute(w)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Regions <= 0 {
			t.Fatalf("%s produced no regions", r.Method)
		}
		if r.Modularity < -1 || r.Modularity > 1 {
			t.Fatalf("%s modularity %g outside [-1,1]", r.Method, r.Modularity)
		}
	}
	// The paper's method optimizes modularity; it must not lose badly
	// to the parameter-dependent baselines at their defaults.
	if rows[0].Modularity < rows[1].Modularity-0.1 {
		t.Fatalf("modularity clustering Q=%.3f far below grid Q=%.3f", rows[0].Modularity, rows[1].Modularity)
	}
	out := AblationClustering(w)
	if !strings.Contains(out, "Modularity(paper)") || !strings.Contains(out, "Grid(Wei12)") {
		t.Fatalf("rendered output missing methods:\n%s", out)
	}
}

func TestCaseCoverage(t *testing.T) {
	w := ablWorld(t)
	rows, err := CaseCoverageCompute(w)
	if err != nil {
		t.Fatal(err)
	}
	total, spliceable := 0, 0
	for _, r := range rows {
		if r.SpliceOK > r.Queries {
			t.Fatalf("bucket %s: spliceOK %d > queries %d", r.Bucket, r.SpliceOK, r.Queries)
		}
		total += r.Queries
		spliceable += r.SpliceOK
		if r.SpliceAcc < 0 || r.SpliceAcc > 100 || r.L2RAccAll < 0 || r.L2RAccAll > 100 {
			t.Fatalf("bucket %s: accuracy out of range: %+v", r.Bucket, r)
		}
	}
	if total == 0 {
		t.Fatal("no test queries bucketed")
	}
	// The Case-3 motivation: splicing must fail on some queries
	// (otherwise the world is too dense to exercise the mechanism).
	if spliceable == total {
		t.Log("warning: every query was spliceable; Case 3 not exercised at this scale")
	}
	out := CaseCoverage(w)
	if !strings.Contains(out, "spliceOK") {
		t.Fatalf("rendered output malformed:\n%s", out)
	}
}

func TestCHSpeedup(t *testing.T) {
	w := ablWorld(t)
	rows := CHSpeedupCompute(w, 40)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3 weights", len(rows))
	}
	for _, r := range rows {
		if r.CHQueryNs <= 0 || r.DijkQueryNs <= 0 {
			t.Fatalf("weight %v: non-positive timings %+v", r.Weight, r)
		}
		if r.Shortcuts < 0 {
			t.Fatalf("weight %v: negative shortcuts", r.Weight)
		}
	}
	out := CHSpeedup(w)
	if !strings.Contains(out, "speedup") {
		t.Fatalf("rendered output malformed:\n%s", out)
	}
	// The table has one column per CHRow measurement: every row must
	// line up with the header (weight, shortcuts, build, CH, Dijkstra,
	// speedup).
	lines := strings.Split(strings.TrimSpace(out), "\n")
	header := lines[len(lines)-4]
	if got := strings.Fields(header); len(got) != 6 || got[3] != "CH/query" || got[4] != "Dijk/query" {
		t.Fatalf("header %q, want 6 columns with CH/query and Dijk/query", header)
	}
	for _, l := range lines[len(lines)-3:] {
		if n := len(strings.Fields(l)); n != 6 {
			t.Fatalf("row %q has %d columns, want 6", l, n)
		}
	}
}

func TestAblationMu(t *testing.T) {
	w := ablWorld(t)
	rows, err := AblationMuCompute(w)
	if err != nil {
		t.Skipf("mu ablation needs enough T-edges: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 100 || r.NullRate < 0 || r.NullRate > 100 {
			t.Fatalf("mu=(%g,%g): out-of-range metrics %+v", r.Mu1, r.Mu2, r)
		}
	}
	out := AblationMu(w)
	if !strings.Contains(out, "mu1") {
		t.Fatalf("rendered output malformed:\n%s", out)
	}
}

func TestAblationClusteringE2E(t *testing.T) {
	w := ablWorld(t)
	rows, err := AblationClusteringE2ECompute(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Regions <= 0 || r.Queries <= 0 {
			t.Fatalf("%s: degenerate row %+v", r.Method, r)
		}
		if r.AccEq1 < 0 || r.AccEq1 > 100 {
			t.Fatalf("%s: accuracy %g out of range", r.Method, r.AccEq1)
		}
	}
	out := AblationClusteringE2E(w)
	if !strings.Contains(out, "accEq1") {
		t.Fatalf("rendered output malformed:\n%s", out)
	}
}

func TestMatchRate(t *testing.T) {
	w := ablWorld(t)
	rows := MatchRateCompute(w, 15)
	if len(rows) != 4 {
		t.Fatalf("got %d regimes, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Matched+r.Failed == 0 {
			t.Fatalf("%s: no trajectories processed", r.Label)
		}
		if r.MeanSim < 0 || r.MeanSim > 100 {
			t.Fatalf("%s: similarity %g out of range", r.Label, r.MeanSim)
		}
	}
	// High-frequency matching must recover paths at least as well as
	// the lowest-frequency regime.
	if rows[0].Matched > 0 && rows[3].Matched > 0 && rows[0].MeanSim < rows[3].MeanSim-10 {
		t.Fatalf("1Hz similarity %.1f%% far below 0.02Hz %.1f%%", rows[0].MeanSim, rows[3].MeanSim)
	}
	out := MatchRate(w)
	if !strings.Contains(out, "regime") {
		t.Fatalf("rendered output malformed:\n%s", out)
	}
}

func TestSignificanceRenders(t *testing.T) {
	w := ablWorld(t)
	out := Significance(w)
	if !strings.Contains(out, "p-value") || !strings.Contains(out, "Shortest") {
		t.Fatalf("significance output malformed:\n%s", out)
	}
}
