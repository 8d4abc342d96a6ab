package ch_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ch"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
)

// External test package: these tests pin the customizable-hierarchy
// (Topology/Metric) query results to plain Dijkstra, over well past 200
// OD pairs per run, including after repeated re-customizations of the
// same topology. route imports ch for its CHEngine backend, so they
// cannot live in package ch without an import cycle.

// buildTestGraphs returns a mix of structured and random road networks.
func buildTestGraphs(tb testing.TB) []*roadnet.Graph {
	tb.Helper()
	return []*roadnet.Graph{
		roadnet.GenerateGrid(8, 8, 150, roadnet.Residential),
		roadnet.Generate(roadnet.Tiny(7)),
		randomGraph(rand.New(rand.NewSource(11)), 60, 150),
	}
}

// randomGraph builds a connected-ish random directed graph: a ring for
// base connectivity plus m random extra edges of varying road types.
func randomGraph(rng *rand.Rand, n, m int) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000})
	}
	for i := 0; i < n; i++ {
		b.AddRoad(roadnet.VertexID(i), roadnet.VertexID((i+1)%n), roadnet.Tertiary)
	}
	for i := 0; i < m; i++ {
		u := roadnet.VertexID(rng.Intn(n))
		v := roadnet.VertexID(rng.Intn(n))
		if u == v {
			continue
		}
		t := roadnet.RoadType(rng.Intn(int(roadnet.NumRoadTypes)))
		b.AddEdge(u, v, t)
	}
	return b.Build()
}

// TestCostMatchesDijkstra: one metric-independent topology per graph,
// customized per weight, must agree with Dijkstra on every pair.
func TestCostMatchesDijkstra(t *testing.T) {
	for gi, g := range buildTestGraphs(t) {
		topo := ch.BuildTopology(g)
		eng := route.NewEngine(g)
		mq := ch.NewMetricQuery(topo)
		for _, w := range []roadnet.Weight{roadnet.DI, roadnet.TT, roadnet.FC} {
			m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, w) })
			rng := rand.New(rand.NewSource(int64(gi)*100 + int64(w)))
			for trial := 0; trial < 60; trial++ {
				s := roadnet.VertexID(rng.Intn(g.NumVertices()))
				d := roadnet.VertexID(rng.Intn(g.NumVertices()))
				_, want, okD := eng.Route(s, d, w)
				got, okC := mq.Cost(m, s, d)
				if okD != okC {
					t.Fatalf("graph %d w %v (%d->%d): reachability cch=%v dijkstra=%v", gi, w, s, d, okC, okD)
				}
				if !okD {
					continue
				}
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Errorf("graph %d w %v (%d->%d): cost cch=%g dijkstra=%g", gi, w, s, d, got, want)
				}
			}
		}
	}
}

// TestCCHCostMatchesDijkstraAndCH: one topology per graph, customized
// per weight, must agree with Dijkstra and with the production CH
// engine (route.CHEngine), which contracts its own topology and
// customizes through its metric table, on every pair.
func TestCCHCostMatchesDijkstraAndCH(t *testing.T) {
	for gi, g := range buildTestGraphs(t) {
		topo := ch.BuildTopology(g)
		eng := route.NewEngine(g)
		mq := ch.NewMetricQuery(topo)
		for _, w := range []roadnet.Weight{roadnet.DI, roadnet.TT, roadnet.FC} {
			m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, w) })
			che := route.BuildCHEngine(g, w, ch.Config{})
			rng := rand.New(rand.NewSource(int64(gi)*1000 + int64(w)))
			for trial := 0; trial < 60; trial++ {
				s := roadnet.VertexID(rng.Intn(g.NumVertices()))
				d := roadnet.VertexID(rng.Intn(g.NumVertices()))
				_, want, okD := eng.Route(s, d, w)
				got, okC := mq.Cost(m, s, d)
				_, egot, okE := che.Route(s, d, w)
				if okD != okC || okD != okE {
					t.Fatalf("graph %d w %v (%d->%d): reachability cch=%v engine=%v dijkstra=%v",
						gi, w, s, d, okC, okE, okD)
				}
				if !okD {
					continue
				}
				if math.Abs(got-want) > 1e-6*(1+want) {
					t.Errorf("graph %d w %v (%d->%d): cost cch=%g dijkstra=%g", gi, w, s, d, got, want)
				}
				if math.Abs(got-egot) > 1e-6*(1+egot) {
					t.Errorf("graph %d w %v (%d->%d): cost cch=%g engine=%g", gi, w, s, d, got, egot)
				}
			}
		}
	}
}

// TestCCHRouteUnpacksValidPath: unpacked CCH paths must be connected in
// the original graph, run endpoint to endpoint, and cost exactly what
// the query reported.
func TestCCHRouteUnpacksValidPath(t *testing.T) {
	for gi, g := range buildTestGraphs(t) {
		topo := ch.BuildTopology(g)
		m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, roadnet.TT) })
		mq := ch.NewMetricQuery(topo)
		rng := rand.New(rand.NewSource(int64(gi) + 77))
		for trial := 0; trial < 80; trial++ {
			s := roadnet.VertexID(rng.Intn(g.NumVertices()))
			d := roadnet.VertexID(rng.Intn(g.NumVertices()))
			p, cost, ok := mq.Route(m, s, d)
			if !ok {
				continue
			}
			if !p.Valid(g) {
				t.Fatalf("graph %d (%d->%d): invalid unpacked path %v", gi, s, d, p)
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Fatalf("graph %d: path endpoints %v..%v, want %v..%v", gi, p[0], p[len(p)-1], s, d)
			}
			if pc := p.Cost(g, roadnet.TT); math.Abs(pc-cost) > 1e-6*(1+cost) {
				t.Errorf("graph %d (%d->%d): path cost %g != query cost %g", gi, s, d, pc, cost)
			}
		}
	}
}

// TestCCHRepeatedRecustomization re-customizes one topology many times
// in a row — alternating weights, scaled variants, and partial metrics
// with forbidden edges — and checks equivalence with Dijkstra after
// every pass, interleaving queries the way serving interleaves them
// with ingest-triggered re-customizations. Metrics customized earlier
// must stay valid (immutability): the first metric is re-checked at the
// end.
func TestCCHRepeatedRecustomization(t *testing.T) {
	g := buildTestGraphs(t)[2]
	topo := ch.BuildTopology(g)
	eng := route.NewEngine(g)
	mq := ch.NewMetricQuery(topo)
	weights := []roadnet.Weight{roadnet.TT, roadnet.DI, roadnet.FC}

	check := func(round int, m *ch.Metric, want func(s, d roadnet.VertexID) (float64, bool)) {
		t.Helper()
		rng := rand.New(rand.NewSource(int64(round)))
		for trial := 0; trial < 25; trial++ {
			s := roadnet.VertexID(rng.Intn(g.NumVertices()))
			d := roadnet.VertexID(rng.Intn(g.NumVertices()))
			wc, okW := want(s, d)
			got, okC := mq.Cost(m, s, d)
			if okW != okC {
				t.Fatalf("round %d (%d->%d): reachability cch=%v want=%v", round, s, d, okC, okW)
			}
			if okW && math.Abs(got-wc) > 1e-6*(1+wc) {
				t.Fatalf("round %d (%d->%d): cost cch=%g want=%g", round, s, d, got, wc)
			}
		}
	}

	var first *ch.Metric
	for round := 0; round < 12; round++ {
		w := weights[round%len(weights)]
		scale := 1.0 + float64(round)*0.25
		m := topo.Customize(func(e roadnet.EdgeID) float64 { return scale * g.EdgeWeight(e, w) })
		if first == nil {
			first = m
		}
		check(round, m, func(s, d roadnet.VertexID) (float64, bool) {
			_, c, ok := eng.Route(s, d, w)
			return scale * c, ok
		})
	}

	// Partial metric: edges of one road type forbidden. Reference is
	// Dijkstra on a rebuilt graph that omits those edges.
	forbidden := roadnet.Tertiary
	m := topo.Customize(func(e roadnet.EdgeID) float64 {
		if g.Edge(e).Type == forbidden {
			return math.Inf(1)
		}
		return g.EdgeWeight(e, roadnet.DI)
	})
	fg := filteredCopy(g, forbidden)
	feng := route.NewEngine(fg)
	check(100, m, func(s, d roadnet.VertexID) (float64, bool) {
		_, c, ok := feng.Route(s, d, roadnet.DI)
		return c, ok
	})

	// The very first metric must be untouched by the 12 later passes.
	w0, scale0 := weights[0], 1.0
	check(101, first, func(s, d roadnet.VertexID) (float64, bool) {
		_, c, ok := eng.Route(s, d, w0)
		return scale0 * c, ok
	})
}

// filteredCopy rebuilds g without edges of type skip (same vertex IDs).
func filteredCopy(g *roadnet.Graph, skip roadnet.RoadType) *roadnet.Graph {
	b := roadnet.NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Point(roadnet.VertexID(v)))
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(roadnet.EdgeID(e))
		if ed.Type == skip {
			continue
		}
		b.AddEdge(ed.From, ed.To, ed.Type)
	}
	return b.Build()
}

// TestCCHQuickEquivalence: property test over arbitrary random graphs —
// one topology, two metrics (DI and TT), both must match Dijkstra.
func TestCCHQuickEquivalence(t *testing.T) {
	f := func(seed int64, pairSeed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(30)
		g := randomGraph(rng, n, n*2)
		topo := ch.BuildTopology(g)
		mq := ch.NewMetricQuery(topo)
		eng := route.NewEngine(g)
		for _, w := range []roadnet.Weight{roadnet.DI, roadnet.TT} {
			m := topo.Customize(func(e roadnet.EdgeID) float64 { return g.EdgeWeight(e, w) })
			prng := rand.New(rand.NewSource(pairSeed + int64(w)))
			for i := 0; i < 10; i++ {
				s := roadnet.VertexID(prng.Intn(n))
				d := roadnet.VertexID(prng.Intn(n))
				_, want, okD := eng.Route(s, d, w)
				got, okC := mq.Cost(m, s, d)
				if okD != okC {
					return false
				}
				if okD && math.Abs(got-want) > 1e-6*(1+want) {
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

// TestTopologyInvariants checks structural properties of the contracted
// skeleton: rank is a permutation, every up-arc goes strictly upward in
// rank, arc targets are sorted per vertex, and every original edge is
// represented by some skeleton arc.
func TestTopologyInvariants(t *testing.T) {
	for gi, g := range buildTestGraphs(t) {
		topo := ch.BuildTopology(g)
		n := g.NumVertices()
		seen := make([]bool, n)
		for v := 0; v < n; v++ {
			r := topo.Rank(roadnet.VertexID(v))
			if r < 0 || int(r) >= n || seen[r] {
				t.Fatalf("graph %d: rank not a permutation at v=%d (r=%d)", gi, v, r)
			}
			seen[r] = true
		}
		if topo.NumArcs() < g.NumEdges()/2 {
			t.Fatalf("graph %d: suspiciously few arcs (%d) for %d edges", gi, topo.NumArcs(), g.NumEdges())
		}
		if topo.Shortcuts() < 0 {
			t.Fatalf("graph %d: negative shortcut count", gi)
		}
		// Any finite metric must make every original edge reachable at
		// unit cost 1 hop: customize with unit weights and check s->t
		// cost <= 1 for each original edge (equality unless a parallel
		// cheaper composition exists, which unit weights exclude for
		// direct arcs).
		m := topo.Customize(func(roadnet.EdgeID) float64 { return 1 })
		mq := ch.NewMetricQuery(topo)
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(roadnet.EdgeID(e))
			c, ok := mq.Cost(m, ed.From, ed.To)
			if !ok || c > 1+1e-9 {
				t.Fatalf("graph %d: edge %d (%d->%d) not covered by skeleton (cost %g ok=%v)",
					gi, e, ed.From, ed.To, c, ok)
			}
		}
	}
}
