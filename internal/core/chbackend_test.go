package core

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// buildBackendPair builds the same world once per backend.
func buildBackendPair(t *testing.T) (*roadnet.Graph, *Router, *Router, []*traj.Trajectory) {
	t.Helper()
	g := roadnet.Generate(roadnet.Tiny(31))
	cfg := traj.D2Like(31, 260)
	all := traj.NewSimulator(g, cfg).Run()
	train, test := traj.Split(all, 0.75*cfg.HorizonSec)
	dij, err := Build(g, train, Options{SkipMapMatching: true})
	if err != nil {
		t.Fatalf("Build(dijkstra): %v", err)
	}
	chr, err := Build(g, train, Options{SkipMapMatching: true, PathBackend: BackendCH})
	if err != nil {
		t.Fatalf("Build(ch): %v", err)
	}
	return g, dij, chr, test
}

// TestBuildCHBackendEquivalentRoutes checks the CH-backed router is a
// drop-in replacement: every test query gets a path of the same cost
// class (identical Evidence and, for fastest-path answers, identical
// travel time) as the Dijkstra-backed router.
func TestBuildCHBackendEquivalentRoutes(t *testing.T) {
	g, dij, chr, test := buildBackendPair(t)
	if chr.PathBackend() != BackendCH {
		t.Fatalf("PathBackend() = %v, want BackendCH", chr.PathBackend())
	}
	if dij.PathBackend() != BackendDijkstra {
		t.Fatalf("PathBackend() = %v, want BackendDijkstra", dij.PathBackend())
	}
	if chr.Stats().CHShortcuts < 0 || chr.Stats().CHBuildTime <= 0 {
		t.Fatalf("CH build stats not recorded: %+v", chr.Stats())
	}
	checked := 0
	for _, tr := range test {
		if len(tr.Truth) < 2 {
			continue
		}
		s, d := tr.Source(), tr.Destination()
		rd := dij.Route(s, d)
		rc := chr.Route(s, d)
		if rd.Evidence != rc.Evidence || rd.Category != rc.Category {
			t.Fatalf("query %d->%d: dijkstra (%v,%v) vs ch (%v,%v)",
				s, d, rd.Evidence, rd.Category, rc.Evidence, rc.Category)
		}
		if len(rd.Path) == 0 {
			continue
		}
		// Fastest-path answers must agree exactly on travel time; other
		// evidence classes are driven by the (identical) region state.
		if rd.Evidence == EvidenceFastest {
			cd := rd.Path.Cost(g, roadnet.TT)
			cc := rc.Path.Cost(g, roadnet.TT)
			if diff := cd - cc; diff > 1e-6*(1+cd) || diff < -1e-6*(1+cd) {
				t.Fatalf("query %d->%d: fastest cost dijkstra %g vs ch %g", s, d, cd, cc)
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d comparable queries; world too degenerate", checked)
	}
}

// TestCHBackendSurvivesCloneAndIngest checks the hierarchy is carried
// through Clone and DeepClone→Ingest (the serving swap path) and that
// EnableCH on a Dijkstra router upgrades it exactly once.
func TestCHBackendSurvivesCloneAndIngest(t *testing.T) {
	_, dij, chr, test := buildBackendPair(t)
	if chr.Clone().PathBackend() != BackendCH {
		t.Fatal("Clone dropped the CH backend")
	}
	deep := chr.DeepClone()
	if deep.PathBackend() != BackendCH {
		t.Fatal("DeepClone dropped the CH backend")
	}
	batch := test
	if len(batch) > 20 {
		batch = batch[:20]
	}
	deep.Ingest(batch, IngestOptions{SkipMapMatching: true})
	if deep.PathBackend() != BackendCH {
		t.Fatal("Ingest dropped the CH backend")
	}
	if got := deep.Route(batch[0].Source(), batch[0].Destination()); got.Evidence == EvidenceNone && len(batch[0].Truth) >= 2 {
		t.Fatal("CH-backed deep clone cannot route after ingest")
	}

	if d := dij.EnableCH(); d <= 0 {
		t.Fatalf("EnableCH build time = %v, want > 0", d)
	}
	if dij.PathBackend() != BackendCH {
		t.Fatal("EnableCH did not swap the backend")
	}
	if d := dij.EnableCH(); d != 0 {
		t.Fatalf("second EnableCH rebuilt the hierarchy (took %v)", d)
	}
}
