package route

import (
	"math"

	"repro/internal/container"
	"repro/internal/roadnet"
)

// SlavePredicate reports whether a road type satisfies the slave
// (road-condition) dimension of a routing preference. A nil predicate
// means "no road-condition preference".
type SlavePredicate func(roadnet.RoadType) bool

// Engine runs shortest-path queries over a fixed graph, reusing internal
// buffers across queries. The buffers are allocated lazily on the first
// query, so constructing (or Forking) an Engine costs a small struct;
// per-vertex arrays are only paid by engines that actually run a query.
// Snapshot clone pools rely on this to make cloning cheap.
type Engine struct {
	g *roadnet.Graph

	dist    []float64
	parent  []roadnet.EdgeID
	visited []uint32 // epoch marks; dist/parent valid iff visited[v]==epoch
	settled []uint32
	epoch   uint32
	pending []roadnet.VertexID // SettleTargets' unsettled targets

	heap *container.IndexedMinHeap
}

// NewEngine returns an Engine for g. Query buffers are allocated on
// first use.
func NewEngine(g *roadnet.Graph) *Engine {
	return &Engine{g: g}
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *roadnet.Graph { return e.g }

// Fork returns a fresh Engine over the same graph with independent
// (lazily allocated) query state, implementing PathEngine.
func (e *Engine) Fork() PathEngine { return NewEngine(e.g) }

// ensure allocates the per-vertex query buffers on first use.
func (e *Engine) ensure() {
	if e.dist != nil {
		return
	}
	n := e.g.NumVertices()
	e.dist = make([]float64, n)
	e.parent = make([]roadnet.EdgeID, n)
	e.visited = make([]uint32, n)
	e.settled = make([]uint32, n)
	e.heap = container.NewIndexedMinHeap(n)
}

func (e *Engine) reset() {
	e.ensure()
	e.epoch++
	if e.epoch == 0 { // wrapped; clear marks
		for i := range e.visited {
			e.visited[i] = 0
			e.settled[i] = 0
		}
		e.epoch = 1
	}
	e.heap.Reset()
}

func (e *Engine) see(v roadnet.VertexID, d float64, via roadnet.EdgeID) {
	e.dist[v] = d
	e.parent[v] = via
	e.visited[v] = e.epoch
	e.heap.Push(int(v), d)
}

func (e *Engine) distOf(v roadnet.VertexID) float64 {
	if e.visited[v] != e.epoch {
		return math.Inf(1)
	}
	return e.dist[v]
}

// extractPath reconstructs the path ending at d via parent edges.
func (e *Engine) extractPath(d roadnet.VertexID) roadnet.Path {
	var rev roadnet.Path
	v := d
	for {
		rev = append(rev, v)
		pe := e.parent[v]
		if pe == roadnet.NoEdge {
			break
		}
		v = e.g.Edge(pe).From
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Route returns the minimum-cost path from s to d under weight w, its
// cost, and whether d is reachable.
func (e *Engine) Route(s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return e.RoutePref(s, d, w, nil)
}

// Shortest returns the minimum-distance path.
func (e *Engine) Shortest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return e.Route(s, d, roadnet.DI)
}

// Fastest returns the minimum-travel-time path.
func (e *Engine) Fastest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return e.Route(s, d, roadnet.TT)
}

// RoutePref implements the paper's Algorithm 2
// (ApplyingPreferencesModifiedDijkstra). The master dimension chooses the
// scalar weight minimized; the slave predicate restricts expansion: when
// at least one out-edge of the settled vertex satisfies the slave
// road-condition preference, only satisfying edges are relaxed; when none
// does, all out-edges are relaxed. A nil slave gives classical Dijkstra.
func (e *Engine) RoutePref(s, d roadnet.VertexID, w roadnet.Weight, slave SlavePredicate) (roadnet.Path, float64, bool) {
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		if u == d {
			return e.extractPath(d), du, true
		}
		e.relax(u, du, w, slave)
	}
	return nil, math.Inf(1), false
}

func (e *Engine) relax(u roadnet.VertexID, du float64, w roadnet.Weight, slave SlavePredicate) {
	out := e.g.Out(u)
	restrict := false
	if slave != nil {
		// Case (i) of Algorithm 2: some out-edge satisfies the slave
		// preference — explore only those. Case (ii): none does —
		// explore all.
		for _, eid := range out {
			if slave(e.g.Edge(eid).Type) {
				restrict = true
				break
			}
		}
	}
	for _, eid := range out {
		ed := e.g.Edge(eid)
		if restrict && !slave(ed.Type) {
			continue
		}
		alt := du + e.g.EdgeWeight(eid, w)
		if alt < e.distOf(ed.To) {
			if e.settled[ed.To] == e.epoch {
				continue // already settled with a smaller key
			}
			e.see(ed.To, alt, eid)
		}
	}
}

// OneToAll computes minimum costs from s to every reachable vertex under
// weight w. The returned slice is indexed by vertex and holds +Inf for
// unreachable vertices. It is a fresh allocation; the engine's buffers
// remain reusable.
func (e *Engine) OneToAll(s roadnet.VertexID, w roadnet.Weight) []float64 {
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	out := make([]float64, e.g.NumVertices())
	for i := range out {
		out[i] = math.Inf(1)
	}
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		out[u] = du
		e.relax(u, du, w, nil)
	}
	return out
}

// SettleTargets runs Dijkstra from s under weight w until every vertex
// in targets is settled and the next queue key exceeds the last
// target's cost by more than slack, or until the next key exceeds
// bound; with no targets it settles everything within bound. The
// search state stays in the engine: SettledCost reads it until the
// next query. Map matching uses it to read the network distances from
// one candidate's edge head to the next level's edge tails — and to
// rebuild the vias to them — without exploring (or copying out)
// everything within the bound.
func (e *Engine) SettleTargets(s roadnet.VertexID, w roadnet.Weight, targets []roadnet.VertexID, slack, bound float64) {
	e.reset()
	e.pending = append(e.pending[:0], targets...)
	stop := bound
	e.see(s, 0, roadnet.NoEdge)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		if du > stop {
			break
		}
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		if len(e.pending) > 0 {
			kept := e.pending[:0]
			for _, t := range e.pending {
				if t != u {
					kept = append(kept, t)
				}
			}
			e.pending = kept
			if len(kept) == 0 {
				stop = min(stop, du+slack)
			}
		}
		e.relax(u, du, w, nil)
	}
}

// SettledCost returns the cost of v found by the last SettleTargets
// search and whether that search settled v.
func (e *Engine) SettledCost(v roadnet.VertexID) (float64, bool) {
	if e.settled == nil || e.settled[v] != e.epoch {
		return 0, false
	}
	return e.dist[v], true
}

// CustomRoute runs Dijkstra with an arbitrary non-negative edge cost
// function.
func (e *Engine) CustomRoute(s, d roadnet.VertexID, cost func(roadnet.EdgeID) float64) (roadnet.Path, float64, bool) {
	e.reset()
	e.see(s, 0, roadnet.NoEdge)
	for e.heap.Len() > 0 {
		ui, du := e.heap.Pop()
		u := roadnet.VertexID(ui)
		e.settled[u] = e.epoch
		if u == d {
			return e.extractPath(d), du, true
		}
		for _, eid := range e.g.Out(u) {
			ed := e.g.Edge(eid)
			alt := du + cost(eid)
			if e.settled[ed.To] != e.epoch && alt < e.distOf(ed.To) {
				e.see(ed.To, alt, eid)
			}
		}
	}
	return nil, math.Inf(1), false
}
