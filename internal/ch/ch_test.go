package ch

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// White-box tests of the hierarchy invariants and the degenerate query
// cases. Tests comparing CCH against the route package's Dijkstra live
// in cch_ext_test.go (external test package): route provides a
// CCH-backed PathEngine, so an in-package import of route would be a
// cycle.

// metricQuery contracts g, customizes w and returns a query context.
func metricQuery(g *roadnet.Graph, w roadnet.Weight) (*MetricQuery, *Metric) {
	topo := BuildTopology(g)
	m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, w) })
	return NewMetricQuery(topo), m
}

// TestSameSourceDest checks the degenerate s == d query.
func TestSameSourceDest(t *testing.T) {
	g := roadnet.GenerateGrid(4, 4, 100, roadnet.Residential)
	q, m := metricQuery(g, roadnet.DI)
	p, cost, ok := q.Route(m, 3, 3)
	if !ok || cost != 0 {
		t.Fatalf("Route(3,3) = cost %g ok %v, want 0 true", cost, ok)
	}
	if len(p) != 1 || p[0] != 3 {
		t.Fatalf("Route(3,3) path = %v, want [3]", p)
	}
}

// TestDisconnected verifies unreachable pairs are reported as such.
func TestDisconnected(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{X: float64(i) * 100})
	}
	b.AddRoad(0, 1, roadnet.Residential)
	b.AddRoad(2, 3, roadnet.Residential)
	g := b.Build()
	q, m := metricQuery(g, roadnet.DI)
	if _, ok := q.Cost(m, 0, 2); ok {
		t.Fatal("Cost(0,2) reported reachable on disconnected graph")
	}
	if p, _, ok := q.Route(m, 3, 1); ok {
		t.Fatalf("Route(3,1) = %v on disconnected graph", p)
	}
	if c, ok := q.Cost(m, 0, 1); !ok || c <= 0 {
		t.Fatalf("Cost(0,1) = %g, %v; want positive, true", c, ok)
	}
}

// TestOneWayStreet verifies directedness is respected: an edge added in
// only one direction must not be usable backwards.
func TestOneWayStreet(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{X: float64(i) * 100})
	}
	b.AddEdge(0, 1, roadnet.Residential) // one-way
	b.AddEdge(1, 2, roadnet.Residential) // one-way
	g := b.Build()
	q, m := metricQuery(g, roadnet.DI)
	if _, ok := q.Cost(m, 2, 0); ok {
		t.Fatal("one-way chain traversed backwards")
	}
	if c, ok := q.Cost(m, 0, 2); !ok || math.Abs(c-200) > 1e-9 {
		t.Fatalf("Cost(0,2) = %g, %v; want 200, true", c, ok)
	}
	if p, _, ok := q.Route(m, 0, 2); !ok || len(p) != 3 || p[1] != 1 {
		t.Fatalf("Route(0,2) = %v, %v; want [0 1 2]", p, ok)
	}
}

// TestRankPermutation checks that contraction ranks form a permutation
// of [0, n) and that order is its inverse (Customize walks order).
func TestRankPermutation(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(3))
	topo := BuildTopology(g)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		r := topo.Rank(roadnet.VertexID(v))
		if r < 0 || r >= n {
			t.Fatalf("rank(%d) = %d out of range", v, r)
		}
		if int(topo.order[r]) != v {
			t.Fatalf("order[rank(%d)] = %d, want %d", v, topo.order[r], v)
		}
	}
}

// TestUpwardProperty checks the defining CH invariant: every skeleton
// arc leads from its owner to a strictly higher-ranked vertex, and each
// owner's arcs are sorted by that rank (findArc binary-searches them).
func TestUpwardProperty(t *testing.T) {
	g := roadnet.Generate(roadnet.Tiny(9))
	topo := BuildTopology(g)
	for v := 0; v < g.NumVertices(); v++ {
		prev := topo.rank[v]
		for k := topo.upStart[v]; k < topo.upStart[v+1]; k++ {
			u := topo.upTo[k]
			if topo.rank[u] <= prev {
				t.Fatalf("arc %d->%d: rank %d not above %d", v, u, topo.rank[u], prev)
			}
			prev = topo.rank[u]
			if topo.findArc(int32(v), u) != k {
				t.Fatalf("findArc(%d, %d) = %d, want %d", v, u, topo.findArc(int32(v), u), k)
			}
		}
	}
}

// TestShortcutsReported checks that Shortcuts counts exactly the
// skeleton arcs with no original road edge in either direction, and
// that contracting a grid creates some.
func TestShortcutsReported(t *testing.T) {
	g := roadnet.GenerateGrid(6, 6, 100, roadnet.Residential)
	topo := BuildTopology(g)
	want := 0
	for k := range topo.upTo {
		if topo.origUp[k] < 0 && topo.origDown[k] < 0 {
			want++
		}
	}
	if got := topo.Shortcuts(); got != want || got == 0 {
		t.Fatalf("Shortcuts() = %d, want %d (> 0)", got, want)
	}
}
