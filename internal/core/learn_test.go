package core

import (
	"reflect"
	"testing"

	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// benchBuild builds the bench-scale world (the bench_test.go world) on
// the given backend from ground-truth paths.
func benchBuild(t *testing.T, backend PathBackend) (*Router, *worldgen.World) {
	t.Helper()
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 5))
	r, err := Build(w.Road, w.Train, Options{SkipMapMatching: true, PathBackend: backend})
	if err != nil {
		t.Fatalf("Build(%v): %v", backend, err)
	}
	return r, w
}

// TestLearnerCHMatchesDijkstra: the learner scores candidates with
// Algorithm 2 searches, so it must learn exactly the same Result on
// plain Dijkstra and on a Detached fork of the router's hierarchy —
// over every T-edge's full path set, its terminal-first learning set,
// and every region's inner-path set.
func TestLearnerCHMatchesDijkstra(t *testing.T) {
	r, _ := benchBuild(t, BackendCH)
	che := r.eng.(*route.CHEngine)
	dij := pref.NewLearner(r.road)
	cch := pref.NewLearnerOn(che.Detached())

	var sets [][]roadnet.Path
	for _, e := range r.rg.Edges {
		if e.Kind == region.TEdge {
			sets = append(sets, edgePaths(e))
		}
	}
	for _, jobs := range [][]learnJob{tedgeJobs(r.rg), regionJobs(r.rg)} {
		for _, j := range jobs {
			sets = append(sets, j.paths)
		}
	}
	if len(sets) < 50 {
		t.Fatalf("only %d path sets; the bench world should yield far more", len(sets))
	}
	for i, ps := range sets {
		if got, want := cch.Learn(ps), dij.Learn(ps); got != want {
			t.Fatalf("path set %d (%d paths): CH learned %+v, Dijkstra %+v", i, len(ps), got, want)
		}
	}
}

// TestBackendsLearnSamePreferences: a BackendCH and a BackendDijkstra
// build of the same inputs learn identical T-edge and region
// preferences, and keep doing so through an Ingest.
func TestBackendsLearnSamePreferences(t *testing.T) {
	chr, w := benchBuild(t, BackendCH)
	dij, _ := benchBuild(t, BackendDijkstra)
	same := func(stage string) {
		t.Helper()
		if !reflect.DeepEqual(chr.learned, dij.learned) {
			t.Fatalf("%s: T-edge preferences differ between backends", stage)
		}
		if !reflect.DeepEqual(chr.regionPrefs, dij.regionPrefs) {
			t.Fatalf("%s: region preferences differ between backends", stage)
		}
	}
	same("build")
	if len(chr.learned) == 0 || len(chr.regionPrefs) == 0 {
		t.Fatalf("nothing learned: %d T-edges, %d regions", len(chr.learned), len(chr.regionPrefs))
	}

	batch := w.Test[:40]
	st := chr.Ingest(copyTrajs(batch), IngestOptions{SkipMapMatching: true})
	dij.Ingest(copyTrajs(batch), IngestOptions{SkipMapMatching: true})
	if st.Relearned == 0 {
		t.Fatal("ingest relearned nothing")
	}
	same("ingest")
}

// TestLearnerMetricsStayOffServingTable guards the resident metric set
// of a BackendCH router: after Build, and again after an Ingest, the
// engine holds exactly the metrics serving routes on — the three
// scalar weights plus the applied preferences PrepareMetrics and
// PrepareMetricsTouched customize — and none of the candidate metrics
// preference learning searched.
func TestLearnerMetricsStayOffServingTable(t *testing.T) {
	r, w := benchBuild(t, BackendCH)
	want := servingMetrics(r, nil)
	requireResident(t, "after Build", r, want)

	next := r.IngestClone()
	st := next.Ingest(copyTrajs(w.Test[:40]), IngestOptions{SkipMapMatching: true})
	if st.Relearned == 0 {
		t.Fatal("ingest relearned nothing")
	}
	next.PrepareMetricsTouched(st.TouchedEdges)
	for m := range servingMetrics(next, st.TouchedEdges) {
		want[m] = true
	}
	requireResident(t, "after Ingest", next, want)
}

// requireResident asserts r's engine table holds exactly the metrics
// in want: each is already customized, and the table has run one
// customization per metric, none more.
func requireResident(t *testing.T, stage string, r *Router, want map[pref.Preference]bool) {
	t.Helper()
	che := r.eng.(*route.CHEngine)
	for p := range want {
		if che.Prepare(p.Master, p.Slave.Mask()) {
			t.Fatalf("%s: serving metric %v was not resident", stage, p)
		}
	}
	if got := che.Customizations(); got != uint64(len(want)) {
		t.Fatalf("%s: table ran %d customizations, serving needs %d metrics", stage, got, len(want))
	}
}

// servingMetrics lists the metrics a router routes on, as preferences
// (a scalar weight is a preference with no slave): the scalar weights
// and the preferences of its region edges (only the touched ones when
// touched is non-nil), regions and multi-preference fits.
func servingMetrics(r *Router, touched []int) map[pref.Preference]bool {
	out := make(map[pref.Preference]bool)
	add := func(p pref.Preference) { out[p] = true }
	if touched == nil {
		for _, w := range []roadnet.Weight{roadnet.TT, roadnet.DI, roadnet.FC} {
			add(pref.Preference{Master: w, Slave: pref.NoSlave})
		}
		for _, e := range r.rg.Edges {
			touched = append(touched, e.ID)
		}
		for _, res := range r.regionPrefs {
			add(res.Preference)
		}
		for _, mr := range r.multi {
			for _, wp := range mr.Prefs {
				add(wp.Preference)
			}
		}
	}
	for _, id := range touched {
		if e := r.rg.Edges[id]; e.HasPref {
			add(e.Pref)
		}
	}
	return out
}

// edgePaths returns every stored fragment of a region edge, both
// directions.
func edgePaths(e *region.Edge) []roadnet.Path {
	var ps []roadnet.Path
	for _, set := range [][]region.PathInfo{e.PathsFwd, e.PathsRev} {
		for _, pi := range set {
			ps = append(ps, pi.Path)
		}
	}
	return ps
}

// copyTrajs copies trajectories so two routers ingesting the same feed
// never share the Matched field Ingest writes.
func copyTrajs(ts []*traj.Trajectory) []*traj.Trajectory {
	out := make([]*traj.Trajectory, len(ts))
	for i, t := range ts {
		cp := *t
		out[i] = &cp
	}
	return out
}
