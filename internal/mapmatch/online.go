package mapmatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// OnlineMatcher decodes the map-matching HMM incrementally: points are
// observed one at a time, the candidate lattice is extended level by
// level, and the prefix of the decode that no future observation can
// change — the part where every surviving Viterbi chain passes through
// one common ancestor — is committed eagerly, so memory stays bounded
// by the unstable suffix instead of the whole trajectory.
//
// The decoder reproduces Matcher.Match exactly: for any point
// sequence, Observe-ing each point and calling Close returns the very
// path Match returns on the full slice (including its thinning,
// skipped-record, single-point and broken-transition behavior). Tests
// rely on this equivalence; the streaming pipeline relies on it to
// make online ingestion indistinguishable from the offline pass.
//
// An OnlineMatcher inherits its parent Matcher's concurrency contract:
// neither the Matcher nor any OnlineMatcher created from it may be
// used concurrently with another.
type OnlineMatcher struct {
	m *Matcher

	// Thinning state, mirroring Matcher.thin record by record.
	haveThin bool
	lastThin geo.Point
	lastRaw  geo.Point

	// Retained (uncommitted) lattice suffix. lastP is the kept point
	// of the newest retained level; total counts levels ever appended.
	levels    [][]cell
	lastP     geo.Point
	total     int
	firstEdge roadnet.EdgeID // first candidate of the first level
	dead      bool           // a level scored all -inf; suffix is discarded
	closed    bool

	// Committed reconstruction state, mirroring Match's backtrack loop
	// so incremental emission produces the identical vertex sequence.
	path     roadnet.Path
	lastEdge roadnet.EdgeID
}

// NewOnline returns an incremental decoder over m's graph, index and
// configuration. Create one per trajectory segment.
func (m *Matcher) NewOnline() *OnlineMatcher {
	return &OnlineMatcher{m: m, firstEdge: roadnet.NoEdge, lastEdge: roadnet.NoEdge}
}

// Observe extends the decode with the next GPS point. Points closer
// than MinSpacingM to the previously kept point are thinned away, as
// in the offline pass; Observe after Close is a no-op.
func (o *OnlineMatcher) Observe(p geo.Point) {
	if o.closed {
		return
	}
	o.lastRaw = p
	if o.haveThin && p.Dist(o.lastThin) < o.m.cfg.MinSpacingM {
		return
	}
	o.haveThin = true
	o.lastThin = p
	o.observeKept(p)
}

// observeKept appends one lattice level for a kept point and advances
// the Viterbi frontier.
func (o *OnlineMatcher) observeKept(p geo.Point) {
	if o.dead {
		// Offline Match would score this and every later level -inf and
		// backtrack from the last finite level; freezing here is the
		// same answer.
		return
	}
	level := o.m.level(p)
	if level == nil {
		return // skip unmatched records, as Newson & Krumm do
	}
	if o.total == 0 {
		o.firstEdge = level[0].cand.Edge
	}
	o.total++

	if len(o.levels) == 0 {
		for i := range level {
			level[i].score = level[i].logEmit
		}
		o.levels = append(o.levels, level)
		o.lastP = p
		return
	}

	if !o.m.advance(o.levels[len(o.levels)-1], level, o.lastP.Dist(p)) {
		o.dead = true
		return
	}
	o.levels = append(o.levels, level)
	o.lastP = p
	o.commitStable()
}

// commitStable emits the decode prefix that can no longer change.
// Future levels extend only from the newest level's alive cells, so if
// all of their back-pointer chains pass through one common ancestor
// cell, the unique chain up to that ancestor is final: its steps are
// appended to the committed path and the retained lattice is re-rooted
// just after it.
func (o *OnlineMatcher) commitStable() {
	last := len(o.levels) - 1
	if last < 1 {
		return
	}
	reach := make(map[int]bool, len(o.levels[last]))
	for i, c := range o.levels[last] {
		if c.score > math.Inf(-1) {
			reach[i] = true
		}
	}
	commit, commitIdx := -1, -1
	for l := last; l > 0; l-- {
		next := make(map[int]bool, len(reach))
		for i := range reach {
			if p := o.levels[l][i].prev; p >= 0 {
				next[p] = true
			}
		}
		reach = next
		if len(reach) == 1 {
			for j := range reach {
				commit, commitIdx = l-1, j
			}
			break
		}
	}
	if commit < 0 {
		return
	}
	o.emitChain(commit, commitIdx)
	retained := o.levels[commit+1:]
	o.levels = append(o.levels[:0:0], retained...)
	for i := range o.levels[0] {
		o.levels[0][i].prev = -1
	}
}

// emitChain walks back pointers from cell (level, idx) to the retained
// root and emits the steps in forward order.
func (o *OnlineMatcher) emitChain(level, idx int) {
	chain := make([]int, level+1)
	for l := level; l >= 0 && idx >= 0; l-- {
		chain[l] = idx
		idx = o.levels[l][idx].prev
	}
	for l := 0; l <= level; l++ {
		c := o.levels[l][chain[l]]
		o.emitStep(c.cand.Edge, c.via)
	}
}

// emitStep appends one matched edge (plus its via chain) to the
// committed path, with the same consecutive-edge and repeated-vertex
// deduplication as the offline reconstruction.
func (o *OnlineMatcher) emitStep(edge roadnet.EdgeID, via roadnet.Path) {
	if edge == o.lastEdge && len(via) == 0 {
		return // consecutive records matched to the same edge
	}
	e := o.m.g.Edge(edge)
	for _, v := range via {
		o.appendVertex(v)
	}
	o.appendVertex(e.From)
	o.appendVertex(e.To)
	o.lastEdge = edge
}

func (o *OnlineMatcher) appendVertex(v roadnet.VertexID) {
	if len(o.path) == 0 || o.path[len(o.path)-1] != v {
		o.path = append(o.path, v)
	}
}

// StablePrefix returns a copy of the committed prefix of the matched
// path — the part no future Observe can change. It grows monotonically
// and is always a prefix of the path Close eventually returns.
func (o *OnlineMatcher) StablePrefix() roadnet.Path {
	return append(roadnet.Path(nil), o.path...)
}

// Close finishes the decode and returns the matched path, or nil when
// no consistent alignment exists — exactly what Matcher.Match returns
// for the full observed point sequence. The decoder cannot be reused
// afterwards.
func (o *OnlineMatcher) Close() roadnet.Path {
	if o.closed {
		return nil
	}
	o.closed = true
	// The offline thin always keeps the final raw record.
	if o.haveThin && o.lastRaw != o.lastThin {
		o.observeKept(o.lastRaw)
	}
	if o.total == 0 {
		return nil
	}
	if o.total == 1 {
		e := o.m.g.Edge(o.firstEdge)
		o.levels = nil
		return roadnet.Path{e.From, e.To}
	}
	last := len(o.levels) - 1
	bestI, bestS := 0, math.Inf(-1)
	for i, c := range o.levels[last] {
		if c.score > bestS {
			bestI, bestS = i, c.score
		}
	}
	if bestS > math.Inf(-1) {
		o.emitChain(last, bestI)
	}
	o.levels = nil
	if len(o.path) < 2 {
		return nil
	}
	return o.path
}
