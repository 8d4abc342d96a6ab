package route

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ch"
	"repro/internal/roadnet"
)

// TestForkIsLazy pins the allocation contract snapshot clone pools rely
// on: a freshly constructed or forked Engine owns no per-vertex arrays
// until its first query.
func TestForkIsLazy(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(2))
	e := NewEngine(g)
	if e.dist != nil || e.heap != nil {
		t.Fatal("NewEngine allocated query buffers eagerly")
	}
	f, ok := e.Fork().(*Engine)
	if !ok {
		t.Fatalf("Fork returned %T", e.Fork())
	}
	if f.dist != nil || f.heap != nil {
		t.Fatal("Fork allocated query buffers eagerly")
	}
	if _, _, ok := f.Fastest(0, roadnet.VertexID(g.NumVertices()-1)); !ok {
		t.Skip("vertices disconnected; pick of endpoints unlucky")
	}
	if len(f.dist) != g.NumVertices() {
		t.Fatalf("first query allocated %d-vertex buffers, want %d", len(f.dist), g.NumVertices())
	}
	if e.dist != nil {
		t.Fatal("fork's first query touched the parent engine's state")
	}

	che := BuildCHEngine(g, roadnet.TT, ch.Config{})
	cf, ok := che.Fork().(*CHEngine)
	if !ok {
		t.Fatalf("CH Fork returned %T", che.Fork())
	}
	if cf.q != nil {
		t.Fatal("CHEngine.Fork allocated query state eagerly")
	}
	before := che.Customizations()
	cf.Fastest(0, roadnet.VertexID(g.NumVertices()-1))
	if cf.q == nil {
		t.Fatal("CH query state not allocated on first use")
	}
	if got := che.Customizations(); got != before {
		t.Fatalf("scalar fastest query customized a new metric (%d -> %d); the base metric should be shared", before, got)
	}
}

// TestDetachedKeepsParentTable pins the Detached contract preference
// learning relies on: a detached fork reads the parent's metrics, never
// re-customizes one the parent already holds, and customizes every new
// metric into its own table, so the parent's metric set and
// customization count stay exactly as they were.
func TestDetachedKeepsParentTable(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(3))
	che := BuildCHEngine(g, roadnet.TT, ch.Config{})
	held := SlaveMask(1 << roadnet.Residential)
	che.Prepare(roadnet.DI, 0)
	che.Prepare(roadnet.TT, held)
	parentMetrics := tableKeys(che.tab)
	parentCount := che.Customizations()

	det := che.Detached()
	f := det.Fork().(*CHEngine)
	dij := NewEngine(g)
	n := roadnet.VertexID(g.NumVertices())
	admits := func(m SlaveMask) SlavePredicate {
		return func(rt roadnet.RoadType) bool { return m&(1<<rt) != 0 }
	}
	query := func(w roadnet.Weight, m SlaveMask) {
		t.Helper()
		for i := roadnet.VertexID(0); i < 20; i++ {
			s, d := i*7%n, (i*13+5)%n
			_, got, gok := f.RoutePref(s, d, w, admits(m))
			_, want, wok := dij.RoutePref(s, d, w, admits(m))
			if gok != wok || (gok && math.Abs(got-want) > 1e-6*(1+want)) {
				t.Fatalf("(%v, %b) %d->%d: detached fork %v/%g, Dijkstra %v/%g", w, m, s, d, gok, got, wok, want)
			}
		}
	}

	// Metrics the parent holds are read, not re-customized.
	query(roadnet.TT, held)
	query(roadnet.DI, 0)
	if got := det.Customizations(); got != 0 {
		t.Fatalf("detached fork re-customized %d metric(s) the parent holds", got)
	}
	// New metrics land in the private table, once each.
	fresh := []metricKey{{w: roadnet.FC, mask: 1 << roadnet.Motorway}, {w: roadnet.DI, mask: 1 << roadnet.Primary}, {w: roadnet.FC}}
	for round := 0; round < 2; round++ {
		for _, k := range fresh {
			query(k.w, k.mask)
		}
	}
	if got := det.Customizations(); got != uint64(len(fresh)) {
		t.Fatalf("detached fork ran %d customizations, want %d (one per new metric)", got, len(fresh))
	}
	if got := tableKeys(det.tab); len(got) != len(fresh) {
		t.Fatalf("detached table holds %v, want the %d new metrics", got, len(fresh))
	}
	if got := che.Customizations(); got != parentCount {
		t.Fatalf("parent customizations %d -> %d under detached queries", parentCount, got)
	}
	if got := tableKeys(che.tab); !reflect.DeepEqual(got, parentMetrics) {
		t.Fatalf("parent metrics %v -> %v under detached queries", parentMetrics, got)
	}
}

// tableKeys returns the set of metric keys a table holds.
func tableKeys(t *metricTable) map[metricKey]bool {
	out := make(map[metricKey]bool)
	for k := range *t.metrics.Load() {
		out[k] = true
	}
	return out
}
