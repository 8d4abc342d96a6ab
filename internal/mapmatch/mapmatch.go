package mapmatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
)

// Config holds matcher tuning parameters. Zero values are replaced by
// the documented defaults.
type Config struct {
	// CandidateRadiusM bounds the distance from a GPS record to candidate
	// edges (default 60).
	CandidateRadiusM float64
	// SigmaM is the GPS noise standard deviation for emissions
	// (default 10, roughly 1.5–2× the simulator noise).
	SigmaM float64
	// BetaM is the exponential transition scale (default 60).
	BetaM float64
	// MaxCandidates caps candidates per record (default 6).
	MaxCandidates int
	// MinSpacingM thins records closer together than this before
	// matching; 1 Hz feeds are heavily oversampled (default 30).
	MinSpacingM float64
	// RouteFactor bounds the Dijkstra searches: route distances beyond
	// RouteFactor × straight-line + RouteSlackM are treated as broken
	// transitions (default 6 and 800).
	RouteFactor float64
	RouteSlackM float64
}

func (c Config) withDefaults() Config {
	if c.CandidateRadiusM == 0 {
		c.CandidateRadiusM = 60
	}
	if c.SigmaM == 0 {
		c.SigmaM = 10
	}
	if c.BetaM == 0 {
		c.BetaM = 60
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 6
	}
	if c.MinSpacingM == 0 {
		c.MinSpacingM = 30
	}
	if c.RouteFactor == 0 {
		c.RouteFactor = 6
	}
	if c.RouteSlackM == 0 {
		c.RouteSlackM = 800
	}
	return c
}

// Matcher matches GPS point sequences onto a road network. It is not
// safe for concurrent use; create one per goroutine.
type Matcher struct {
	cfg Config
	g   *roadnet.Graph
	idx *spatial.Index
	eng *route.Engine

	tails []roadnet.VertexID // advance's search targets
}

// NewMatcher returns a Matcher over g using the given spatial index.
func NewMatcher(g *roadnet.Graph, idx *spatial.Index, cfg Config) *Matcher {
	return &Matcher{cfg: cfg.withDefaults(), g: g, idx: idx, eng: route.NewEngine(g)}
}

// tieSlack is the cost tolerance of the via reconstruction: a
// predecessor link u→v is taken when cost(u)+len(u,v) is within it of
// cost(v). Each search runs this far past its farthest target so that
// every vertex the rule can pick is settled.
const tieSlack = 1e-6

// cell is one lattice cell: a candidate edge with its log emission
// probability, the Viterbi score, the back pointer into the previous
// level, and the via path from the previous candidate's edge head to
// this candidate's edge tail (exclusive of both edges).
type cell struct {
	cand    spatial.EdgeCandidate
	logEmit float64
	score   float64
	prev    int
	via     roadnet.Path
}

// level returns the lattice level for GPS record p — its nearest
// candidate edges, unscored — or nil when no road is within
// CandidateRadiusM.
func (m *Matcher) level(p geo.Point) []cell {
	cands := m.idx.EdgesWithin(p, m.cfg.CandidateRadiusM)
	if len(cands) > m.cfg.MaxCandidates {
		cands = cands[:m.cfg.MaxCandidates]
	}
	if len(cands) == 0 {
		return nil
	}
	level := make([]cell, len(cands))
	for i, c := range cands {
		z := c.Dist / m.cfg.SigmaM
		level[i] = cell{cand: c, logEmit: -0.5 * z * z, score: math.Inf(-1), prev: -1}
	}
	return level
}

// Match aligns the GPS points with a road-network path. It returns nil
// when no consistent alignment exists (e.g. all records are far from any
// road).
func (m *Matcher) Match(points []geo.Point) roadnet.Path {
	// Candidate lattice, scored level by level (Viterbi). Records with
	// no road nearby are skipped, as Newson & Krumm do; once a level
	// scores all -inf every later one would too, so the decode ends at
	// the last level with a finite score.
	var lattice [][]cell
	var lastP geo.Point
	for _, p := range m.thin(points) {
		level := m.level(p)
		if level == nil {
			continue
		}
		if len(lattice) == 0 {
			for i := range level {
				level[i].score = level[i].logEmit
			}
		} else if !m.advance(lattice[len(lattice)-1], level, lastP.Dist(p)) {
			break
		}
		lattice = append(lattice, level)
		lastP = p
	}
	if len(lattice) == 0 {
		return nil
	}
	if len(lattice) == 1 {
		e := m.g.Edge(lattice[0][0].cand.Edge)
		return roadnet.Path{e.From, e.To}
	}

	// Backtrack from the best cell of the last level.
	last := len(lattice) - 1
	bestI, bestS := 0, math.Inf(-1)
	for i, c := range lattice[last] {
		if c.score > bestS {
			bestI, bestS = i, c.score
		}
	}
	steps := make([]*cell, len(lattice))
	for t, i := last, bestI; t >= 0 && i >= 0; t-- {
		steps[t] = &lattice[t][i]
		i = steps[t].prev
	}

	var path roadnet.Path
	appendVertex := func(v roadnet.VertexID) {
		if len(path) == 0 || path[len(path)-1] != v {
			path = append(path, v)
		}
	}
	lastEdge := roadnet.NoEdge
	for _, s := range steps {
		if s.cand.Edge == lastEdge && len(s.via) == 0 {
			continue // consecutive records matched to the same edge
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

// advance scores level cur against the previous level prev, whose
// records lie straight metres apart: each cell of cur takes its best
// predecessor (the first on ties), its score and its via. It runs one
// bounded search per live cell of prev, stopped once every tail of cur
// is settled. It reports whether any cell of cur got a finite score.
// Match and OnlineMatcher share it, which keeps them identical.
func (m *Matcher) advance(prev, cur []cell, straight float64) bool {
	bound := m.cfg.RouteFactor*straight + m.cfg.RouteSlackM
	for j := range prev {
		pc := &prev[j]
		if pc.score == math.Inf(-1) {
			continue
		}
		m.search(pc.cand, cur, bound)
		for i := range cur {
			cc := &cur[i]
			routeDist, ok := m.routeDistance(pc.cand, cc.cand)
			if !ok {
				continue
			}
			logTrans := -math.Abs(routeDist-straight) / m.cfg.BetaM
			if s := pc.score + logTrans + cc.logEmit; s > cc.score {
				cc.score, cc.prev, cc.via = s, j, m.via(pc.cand, cc.cand)
			}
		}
	}
	for _, c := range cur {
		if c.score > math.Inf(-1) {
			return true
		}
	}
	return false
}

// search runs the bounded search from a's edge head that routeDistance
// and via read: it stops once the edge tails of every cell of to are
// settled (plus tieSlack), or at bound.
func (m *Matcher) search(a spatial.EdgeCandidate, to []cell, bound float64) {
	m.tails = m.tails[:0]
	for _, c := range to {
		m.tails = append(m.tails, m.g.Edge(c.cand.Edge).From)
	}
	m.eng.SettleTargets(m.g.Edge(a.Edge).To, roadnet.DI, m.tails, tieSlack, bound)
}

// routeDistance returns the network distance between two candidate
// projection points. Unless b lies ahead of a on the same edge, it
// reads the last search, which must have run from a.
func (m *Matcher) routeDistance(a, b spatial.EdgeCandidate) (float64, bool) {
	ea, eb := m.g.Edge(a.Edge), m.g.Edge(b.Edge)
	if a.Edge == b.Edge && b.Frac >= a.Frac {
		return (b.Frac - a.Frac) * ea.Length, true
	}
	// Going backwards on the same edge requires a loop; it is routed
	// head to tail like two distinct edges.
	d, ok := m.eng.SettledCost(eb.From)
	if !ok {
		return 0, false
	}
	tailDist := (1 - a.Frac) * ea.Length
	headDist := b.Frac * eb.Length
	return tailDist + d + headDist, true
}

// via returns the vertices between a's edge head and b's edge tail on
// the route of routeDistance, read from the same search. The chain
// starts at a's head, except that it is nil when b lies ahead of a on
// the same edge or b's tail is a's head, and empty (not {head}) when
// the route has no intermediate vertex: Match's same-edge skip relies
// on that, or GPS jitter backwards along one edge would become a
// U-turn. Each vertex's predecessor is the tail of its first in-edge
// from a settled vertex u with cost(u)+len = cost(v) within tieSlack.
func (m *Matcher) via(a, b spatial.EdgeCandidate) roadnet.Path {
	s, v := m.g.Edge(a.Edge).To, m.g.Edge(b.Edge).From
	if a.Edge == b.Edge && b.Frac >= a.Frac || v == s {
		return nil
	}
	var chain roadnet.Path // intermediates, v-side first
	for u := v; u != s; {
		p, ok := m.pred(u)
		if !ok {
			return roadnet.Path{}
		}
		if u = p; u != s {
			chain = append(chain, u)
		}
	}
	if chain == nil {
		return roadnet.Path{}
	}
	out := make(roadnet.Path, 0, len(chain)+1)
	out = append(out, s)
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, chain[i])
	}
	return out
}

// pred returns v's predecessor on the last search's shortest-path
// tree, by via's rule.
func (m *Matcher) pred(v roadnet.VertexID) (roadnet.VertexID, bool) {
	dv, _ := m.eng.SettledCost(v)
	for _, eid := range m.g.In(v) {
		e := m.g.Edge(eid)
		if du, ok := m.eng.SettledCost(e.From); ok && math.Abs(du+e.Length-dv) < tieSlack {
			return e.From, true
		}
	}
	return 0, false
}

// thin drops records closer than MinSpacingM to their predecessor.
func (m *Matcher) thin(points []geo.Point) []geo.Point {
	if len(points) == 0 {
		return nil
	}
	out := []geo.Point{points[0]}
	for _, p := range points[1:] {
		if p.Dist(out[len(out)-1]) >= m.cfg.MinSpacingM {
			out = append(out, p)
		}
	}
	// Always keep the final record so the destination is represented.
	if last := points[len(points)-1]; out[len(out)-1] != last {
		out = append(out, last)
	}
	return out
}
