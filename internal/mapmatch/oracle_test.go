package mapmatch

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// The oracle below is the matcher's original transition step, kept as
// the executable spec of the target-bounded one: a bounded Dijkstra
// that returns the cost of every vertex within the bound, a via path
// materialized for every one of them, and routeDistance reading both
// maps — though it only ever reads the ≤MaxCandidates edge tails of
// the next level.

// oracleBoundedCosts returns the cost of every vertex within bound of s
// by distance.
func oracleBoundedCosts(g *roadnet.Graph, s roadnet.VertexID, bound float64) map[roadnet.VertexID]float64 {
	dist := map[roadnet.VertexID]float64{s: 0}
	out := make(map[roadnet.VertexID]float64)
	q := &oracleQueue{{s, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(oracleItem)
		if _, done := out[it.v]; done || it.d > dist[it.v] {
			continue
		}
		if it.d > bound {
			break
		}
		out[it.v] = it.d
		for _, eid := range g.Out(it.v) {
			e := g.Edge(eid)
			alt := it.d + g.EdgeWeight(eid, roadnet.DI)
			if _, done := out[e.To]; done {
				continue
			}
			if d, seen := dist[e.To]; !seen || alt < d {
				dist[e.To] = alt
				heap.Push(q, oracleItem{e.To, alt})
			}
		}
	}
	return out
}

type oracleItem struct {
	v roadnet.VertexID
	d float64
}

type oracleQueue []oracleItem

func (q oracleQueue) Len() int           { return len(q) }
func (q oracleQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q oracleQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)        { *q = append(*q, x.(oracleItem)) }
func (q *oracleQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// oracleBoundedWithPaths is the original boundedWithPaths: the costs of
// every vertex within bound of s, and a via chain for every one of them
// (so the per-step maps were as large as the bounded search, not
// small).
func oracleBoundedWithPaths(g *roadnet.Graph, s roadnet.VertexID, bound float64) (map[roadnet.VertexID]float64, map[roadnet.VertexID]roadnet.Path) {
	costs := oracleBoundedCosts(g, s, bound)
	paths := make(map[roadnet.VertexID]roadnet.Path, len(costs))
	preds := make(map[roadnet.VertexID]roadnet.VertexID, len(costs))
	for v, dv := range costs {
		for _, eid := range g.In(v) {
			e := g.Edge(eid)
			du, ok := costs[e.From]
			if !ok {
				continue
			}
			if math.Abs(du+e.Length-dv) < 1e-6 {
				preds[v] = e.From
				break
			}
		}
	}
	for v := range costs {
		if v == s {
			continue
		}
		var chain roadnet.Path
		u := v
		for u != s {
			p, ok := preds[u]
			if !ok {
				chain = nil
				break
			}
			u = p
			if u != s {
				chain = append(chain, u)
			}
		}
		if chain == nil {
			paths[v] = roadnet.Path{}
			continue
		}
		for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
			chain[a], chain[b] = chain[b], chain[a]
		}
		paths[v] = append(roadnet.Path{s}, chain...)
	}
	paths[s] = roadnet.Path{}
	return costs, paths
}

// oracleRouteDistance is the original routeDistance over the maps of
// oracleBoundedWithPaths.
func oracleRouteDistance(g *roadnet.Graph, a, b spatial.EdgeCandidate, costs map[roadnet.VertexID]float64, paths map[roadnet.VertexID]roadnet.Path) (float64, roadnet.Path, bool) {
	ea, eb := g.Edge(a.Edge), g.Edge(b.Edge)
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * ea.Length, nil, true
	}
	tailDist := (1 - a.Frac) * ea.Length
	headDist := b.Frac * eb.Length
	d, ok := costs[eb.From]
	if !ok {
		return 0, nil, false
	}
	via := paths[eb.From]
	if eb.From == ea.To {
		via = nil
	}
	return tailDist + d + headDist, via, true
}

// oracleMatch is the original Match: the whole lattice is scored with
// the oracle transitions, then decoded from its last finite level.
func oracleMatch(m *Matcher, points []geo.Point) roadnet.Path {
	var lattice [][]cell
	var kept []geo.Point
	for _, p := range m.thin(points) {
		if level := m.level(p); level != nil {
			lattice = append(lattice, level)
			kept = append(kept, p)
		}
	}
	if len(lattice) == 0 {
		return nil
	}
	if len(lattice) == 1 {
		e := m.g.Edge(lattice[0][0].cand.Edge)
		return roadnet.Path{e.From, e.To}
	}
	for i := range lattice[0] {
		lattice[0][i].score = lattice[0][i].logEmit
	}
	for t := 1; t < len(lattice); t++ {
		straight := kept[t-1].Dist(kept[t])
		bound := m.cfg.RouteFactor*straight + m.cfg.RouteSlackM
		costs := make([]map[roadnet.VertexID]float64, len(lattice[t-1]))
		paths := make([]map[roadnet.VertexID]roadnet.Path, len(lattice[t-1]))
		for j, pc := range lattice[t-1] {
			if pc.score != math.Inf(-1) {
				costs[j], paths[j] = oracleBoundedWithPaths(m.g, m.g.Edge(pc.cand.Edge).To, bound)
			}
		}
		for i := range lattice[t] {
			cc := &lattice[t][i]
			for j, pc := range lattice[t-1] {
				if pc.score == math.Inf(-1) {
					continue
				}
				d, via, ok := oracleRouteDistance(m.g, pc.cand, cc.cand, costs[j], paths[j])
				if !ok {
					continue
				}
				logTrans := -math.Abs(d-straight) / m.cfg.BetaM
				if s := pc.score + logTrans + cc.logEmit; s > cc.score {
					cc.score, cc.prev, cc.via = s, j, via
				}
			}
		}
	}
	last := len(lattice) - 1
	for last > 0 {
		alive := false
		for _, c := range lattice[last] {
			alive = alive || c.score > math.Inf(-1)
		}
		if alive {
			break
		}
		last--
	}
	bestI, bestS := 0, math.Inf(-1)
	for i, c := range lattice[last] {
		if c.score > bestS {
			bestI, bestS = i, c.score
		}
	}
	if bestS == math.Inf(-1) {
		return nil
	}
	var steps []cell
	for t, i := last, bestI; t >= 0 && i >= 0; t-- {
		steps = append(steps, lattice[t][i])
		i = lattice[t][i].prev
	}
	var path roadnet.Path
	appendVertex := func(v roadnet.VertexID) {
		if len(path) == 0 || path[len(path)-1] != v {
			path = append(path, v)
		}
	}
	lastEdge := roadnet.NoEdge
	for k := len(steps) - 1; k >= 0; k-- {
		s := steps[k]
		if s.cand.Edge == lastEdge && len(s.via) == 0 {
			continue
		}
		e := m.g.Edge(s.cand.Edge)
		for _, v := range s.via {
			appendVertex(v)
		}
		appendVertex(e.From)
		appendVertex(e.To)
		lastEdge = s.cand.Edge
	}
	if len(path) < 2 {
		return nil
	}
	return path
}

// oracleFeed is one GPS feed of the online ≡ offline tests with the
// matcher that decodes it there.
type oracleFeed struct {
	name string
	m    *Matcher
	pts  []geo.Point
}

// equivalenceFeeds returns the feeds of the TestOnlineEqualsOffline*
// tests.
func equivalenceFeeds(t *testing.T) []oracleFeed {
	t.Helper()
	var feeds []oracleFeed
	g := roadnet.Generate(roadnet.Tiny(8))
	m := NewMatcher(g, spatial.NewIndex(g, 250), Config{SigmaM: 15})
	for _, tr := range traj.NewSimulator(g, traj.D2Like(5, 30)).Run() {
		pts := make([]geo.Point, len(tr.Records))
		for i, r := range tr.Records {
			pts[i] = r.P
		}
		feeds = append(feeds, oracleFeed{"sim", m, pts})
	}

	grid := roadnet.GenerateGrid(8, 8, 120, roadnet.Tertiary)
	truth, _, ok := route.NewEngine(grid).Shortest(0, 63)
	if !ok {
		t.Fatal("no truth path")
	}
	gm := NewMatcher(grid, spatial.NewIndex(grid, 200), Config{SigmaM: 20})
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, noise := range []float64{5, 18} {
			feeds = append(feeds, oracleFeed{"noisy-grid", gm, noisyWalk(grid, truth, 22, noise, rng)})
		}
	}

	b := roadnet.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Pt(float64(i)*100, 0))
	}
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Pt(float64(i)*100, 400))
	}
	for i := 0; i < 3; i++ {
		b.AddRoad(roadnet.VertexID(i), roadnet.VertexID(i+1), roadnet.Tertiary)
		b.AddRoad(roadnet.VertexID(i+4), roadnet.VertexID(i+5), roadnet.Tertiary)
	}
	split := b.Build()
	feeds = append(feeds, oracleFeed{"broken", NewMatcher(split, spatial.NewIndex(split, 200), Config{MinSpacingM: 1}),
		[]geo.Point{geo.Pt(5, 3), geo.Pt(95, -2), geo.Pt(205, 4), geo.Pt(105, 398), geo.Pt(210, 402)}})
	return feeds
}

// TestTransitionsMatchOracle checks the target-bounded search against
// the oracle on every (previous, current) candidate pair of every
// consecutive level pair of the equivalence feeds: the same distance
// (bit for bit), reachability and via, nil-ness included.
func TestTransitionsMatchOracle(t *testing.T) {
	var pairs, reachable, nilVia, emptyVia, chainVia int
	for _, f := range equivalenceFeeds(t) {
		m := f.m
		var prev []cell
		var prevP geo.Point
		for _, p := range m.thin(f.pts) {
			cur := m.level(p)
			if cur == nil {
				continue
			}
			if prev != nil {
				straight := prevP.Dist(p)
				bound := m.cfg.RouteFactor*straight + m.cfg.RouteSlackM
				for _, pc := range prev {
					costs, paths := oracleBoundedWithPaths(m.g, m.g.Edge(pc.cand.Edge).To, bound)
					m.search(pc.cand, cur, bound)
					for _, cc := range cur {
						pairs++
						wd, wvia, wok := oracleRouteDistance(m.g, pc.cand, cc.cand, costs, paths)
						gd, gok := m.routeDistance(pc.cand, cc.cand)
						if gok != wok || gd != wd {
							t.Fatalf("%s: %v -> %v: got (%v, %v), oracle (%v, %v)", f.name, pc.cand, cc.cand, gd, gok, wd, wok)
						}
						if !gok {
							continue
						}
						reachable++
						gvia := m.via(pc.cand, cc.cand)
						if (gvia == nil) != (wvia == nil) || !pathsEqual(gvia, wvia) {
							t.Fatalf("%s: %v -> %v: via %#v, oracle %#v", f.name, pc.cand, cc.cand, gvia, wvia)
						}
						switch {
						case wvia == nil:
							nilVia++
						case len(wvia) == 0:
							emptyVia++
						default:
							chainVia++
						}
					}
				}
			}
			prev, prevP = cur, p
		}
	}
	t.Logf("%d pairs, %d reachable: %d nil, %d empty, %d chain vias", pairs, reachable, nilVia, emptyVia, chainVia)
	if nilVia == 0 || emptyVia == 0 || chainVia == 0 || reachable == pairs {
		t.Fatal("feeds do not cover every via shape and an unreachable pair; the check has no teeth")
	}
}

// TestMatchMatchesOracleOnBenchWorld decodes every trip of the bench
// world — the world of the root benchmarks, with their matcher
// settings — with Match and with the oracle and requires identical
// paths.
func TestMatchMatchesOracleOnBenchWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes the whole bench world twice")
	}
	w := worldgen.Build(worldgen.MustScale(worldgen.ScaleBench, 5))
	m := NewMatcher(w.Road, spatial.NewIndex(w.Road, 300), Config{SigmaM: 15})
	matched := 0
	for _, tr := range w.All {
		pts := make([]geo.Point, len(tr.Records))
		for i, r := range tr.Records {
			pts[i] = r.P
		}
		got, want := m.Match(pts), oracleMatch(m, pts)
		if (got == nil) != (want == nil) || !pathsEqual(got, want) {
			t.Fatalf("trip %d: Match %v, oracle %v", tr.ID, got, want)
		}
		if len(got) >= 2 {
			matched++
		}
	}
	if matched < len(w.All)/2 {
		t.Fatalf("only %d/%d trips matched", matched, len(w.All))
	}
}

// TestBackwardJitterIsNotAUTurn pins via's empty-chain rule. A record
// that jitters backwards along the edge it is matched to is routed
// head to tail through the reverse edge. That route has no
// intermediate vertex, so its via must be empty — not {head} — and
// Match's same-edge skip then keeps the jitter out of the path; a
// {head} via would decode it as a U-turn.
func TestBackwardJitterIsNotAUTurn(t *testing.T) {
	b := roadnet.NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Pt(float64(i)*200, 0))
	}
	b.AddRoad(0, 1, roadnet.Tertiary)
	b.AddRoad(1, 2, roadnet.Tertiary)
	g := b.Build()
	m := NewMatcher(g, spatial.NewIndex(g, 200), Config{MinSpacingM: 1, MaxCandidates: 1})
	var fwd roadnet.EdgeID = roadnet.NoEdge
	for _, eid := range g.Out(0) {
		if g.Edge(eid).To == 1 {
			fwd = eid
		}
	}
	ahead := spatial.EdgeCandidate{Edge: fwd, Frac: 0.6}
	behind := spatial.EdgeCandidate{Edge: fwd, Frac: 0.5}
	m.search(ahead, []cell{{cand: behind}}, 1e4)
	if _, ok := m.routeDistance(ahead, behind); !ok {
		t.Fatal("backward same-edge transition unreachable")
	}
	if via := m.via(ahead, behind); via == nil || len(via) != 0 {
		t.Fatalf("backward same-edge via = %#v, want empty non-nil", via)
	}

	// Along 0→1, a 20 m backward jitter, then on to 2. With one
	// candidate per record (the nearest edge), every record on the first
	// road is matched to 0→1.
	pts := []geo.Point{geo.Pt(20, 1), geo.Pt(120, 1), geo.Pt(100, 1), geo.Pt(150, 1), geo.Pt(350, 1), geo.Pt(390, 1)}
	path := m.Match(pts)
	if !pathsEqual(path, roadnet.Path{0, 1, 2}) {
		t.Fatalf("Match = %v, want [0 1 2]", path)
	}
	if online := onlineMatch(m, pts); !pathsEqual(online, path) {
		t.Fatalf("online %v != offline %v", online, path)
	}
}
