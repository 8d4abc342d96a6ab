package route

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/ch"
	"repro/internal/roadnet"
)

// SlaveMask is the comparable identity of a SlavePredicate: bit t is set
// iff the predicate admits road type t. It keys customized metrics where
// the predicate itself (a func value) cannot. Zero is the nil predicate;
// a predicate admitting no road type also maps to zero, which is
// correct — Algorithm 2 with an unsatisfiable slave restricts nothing,
// because no vertex has a satisfying out-edge.
type SlaveMask uint32

// MaskOf probes slave over every road type to recover its mask. A
// SlavePredicate is a pure function of the road type, so the mask
// captures it exactly.
func MaskOf(slave SlavePredicate) SlaveMask {
	if slave == nil {
		return 0
	}
	var m SlaveMask
	for t := roadnet.RoadType(0); t < roadnet.NumRoadTypes; t++ {
		if slave(t) {
			m |= 1 << t
		}
	}
	return m
}

// metricKey identifies one customized metric: a scalar weight (mask 0),
// a preference-filtered weight (mask != 0), or a hash-interned custom
// cost function (custom != 0, w/mask unused).
type metricKey struct {
	w      roadnet.Weight
	mask   SlaveMask
	custom uint64
}

// maxCustomMetrics bounds the hash-interned custom-cost metrics kept
// customized at once; beyond it the oldest is dropped (FIFO) and would
// be re-customized on demand. Scalar and preference metrics are never
// evicted — their key space is tiny (weights × learned slave features).
const maxCustomMetrics = 8

// metricTable is the shared, metric-versioned side of a CCH engine: one
// immutable ch.Metric per key, behind an atomically swapped map so
// queries on any fork read lock-free while a writer customizes a new
// metric. Customization replaces the map, never a Metric in place —
// in-flight queries keep the version they loaded.
type metricTable struct {
	topo *ch.Topology

	mu      sync.Mutex // serializes writers (customizations)
	metrics atomic.Pointer[map[metricKey]*ch.Metric]
	customs []metricKey // FIFO of custom-cost keys, for eviction

	customized atomic.Uint64 // total customizations run (telemetry/tests)
}

func newMetricTable(topo *ch.Topology) *metricTable {
	t := &metricTable{topo: topo}
	m := make(map[metricKey]*ch.Metric)
	t.metrics.Store(&m)
	return t
}

// get returns the customized metric for k, or nil.
func (t *metricTable) get(k metricKey) *ch.Metric {
	return (*t.metrics.Load())[k]
}

// ensure returns the metric for k, customizing it under cost if absent.
// It reports whether a customization ran.
func (t *metricTable) ensure(k metricKey, cost func(roadnet.EdgeID) float64) (*ch.Metric, bool) {
	if m := t.get(k); m != nil {
		return m, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.get(k); m != nil { // lost the race to another writer
		return m, false
	}
	m := t.topo.Customize(cost)
	old := *t.metrics.Load()
	next := make(map[metricKey]*ch.Metric, len(old)+1)
	for ok, ov := range old {
		next[ok] = ov
	}
	next[k] = m
	if k.custom != 0 {
		t.customs = append(t.customs, k)
		if len(t.customs) > maxCustomMetrics {
			delete(next, t.customs[0])
			t.customs = t.customs[1:]
		}
	}
	t.metrics.Store(&next)
	t.customized.Add(1)
	return m, true
}

// CHEngine is a PathEngine over a customizable contraction hierarchy:
// the road network is contracted once, metric-independently, and every
// query family then rides the shared skeleton under its own customized
// metric — scalar weights (Route/Fastest/Shortest), Algorithm 2
// preference searches (RoutePref: the slave restriction depends only on
// each vertex's static out-edge types, so it is exactly Dijkstra over a
// statically filtered edge set, i.e. a fixed metric with forbidden edges
// at +Inf), and custom cost functions (CustomRoute, hash-interned).
//
// Forks share the topology and the metric table; each fork owns one
// ch.MetricQuery scratch (allocated on first use, reused across queries
// AND across metrics via epoch reset) plus a small buffer for custom
// cost hashing. Customizing a new metric happens at most once per key,
// serialized on the table; queries never block on it unless they are
// the first to need that key.
//
// A Detached fork reads the shared table but customizes every scalar or
// preference metric it lacks into a private table of its own, so a
// burst of one-off metrics (preference learning scores 30 candidates)
// never becomes resident in the table serving keeps alive.
type CHEngine struct {
	g      *roadnet.Graph
	w      roadnet.Weight // base weight, pre-customized at build time
	topo   *ch.Topology
	tab    *metricTable // table new metrics are customized into
	shared *metricTable // Detached forks: the parent's table, read first

	q       *ch.MetricQuery // lazy per-fork query scratch
	costBuf []float64       // lazy per-fork custom-cost staging buffer
}

// NewCHEngine wraps a prebuilt topology over g, customizing the base
// metric for w.
func NewCHEngine(g *roadnet.Graph, topo *ch.Topology, w roadnet.Weight) *CHEngine {
	c := &CHEngine{g: g, w: w, topo: topo, tab: newMetricTable(topo)}
	c.Prepare(w, 0)
	return c
}

// BuildCHEngine contracts the CCH topology for g and customizes the
// base metric for w. Build once, Fork per goroutine. Contraction is
// metric-independent and has nothing to tune: ch.Config is empty, and
// the parameter stays only because the benchmark module (perfbench)
// calls BuildCHEngine with it.
func BuildCHEngine(g *roadnet.Graph, w roadnet.Weight, _ ch.Config) *CHEngine {
	return NewCHEngine(g, ch.BuildTopology(g), w)
}

// Graph implements PathEngine.
func (c *CHEngine) Graph() *roadnet.Graph { return c.g }

// Topology returns the shared contraction skeleton.
func (c *CHEngine) Topology() *ch.Topology { return c.topo }

// Shortcuts returns the number of pure-shortcut skeleton edges.
func (c *CHEngine) Shortcuts() int { return c.topo.Shortcuts() }

// Weight returns the base weight customized at construction.
func (c *CHEngine) Weight() roadnet.Weight { return c.w }

// Customizations returns how many metric customizations the engine's
// table has run since construction (including the base metric); on a
// Detached fork, how many its private table has run.
func (c *CHEngine) Customizations() uint64 { return c.tab.customized.Load() }

// Fork implements PathEngine: the returned engine shares the topology
// and the customized-metric table(s); query state is allocated on first
// use.
func (c *CHEngine) Fork() PathEngine {
	return &CHEngine{g: c.g, w: c.w, topo: c.topo, tab: c.tab, shared: c.shared}
}

// Detached returns a fork that reads c's scalar and preference metrics
// but customizes any it lacks into a private table, leaving c's table
// untouched. The private table is shared by the fork's own Forks and
// dies with them. Use it for bulk work whose metrics serving never
// needs, such as preference learning.
func (c *CHEngine) Detached() *CHEngine {
	return &CHEngine{g: c.g, w: c.w, topo: c.topo, tab: newMetricTable(c.topo), shared: c.tab}
}

func (c *CHEngine) query() *ch.MetricQuery {
	if c.q == nil {
		c.q = ch.NewMetricQuery(c.topo)
	}
	return c.q
}

// scalarCost is the customization cost function for weight w with the
// slave mask applied: a masked-out edge costs +Inf exactly when its
// tail vertex has some mask-satisfying out-edge (Algorithm 2's case
// (i)); vertices with none relax everything (case (ii)).
func (c *CHEngine) scalarCost(w roadnet.Weight, mask SlaveMask) func(roadnet.EdgeID) float64 {
	if mask == 0 {
		return func(e roadnet.EdgeID) float64 { return c.g.EdgeWeight(e, w) }
	}
	restrict := make([]bool, c.g.NumVertices())
	for v := range restrict {
		for _, e := range c.g.Out(roadnet.VertexID(v)) {
			if mask&(1<<c.g.Edge(e).Type) != 0 {
				restrict[v] = true
				break
			}
		}
	}
	inf := math.Inf(1)
	return func(e roadnet.EdgeID) float64 {
		ed := c.g.Edge(e)
		if restrict[ed.From] && mask&(1<<ed.Type) == 0 {
			return inf
		}
		return c.g.EdgeWeight(e, w)
	}
}

// Prepare ensures the customized metric for (w, mask) exists, reporting
// whether a customization ran now. The serving layer calls it on the
// ingest path so queries never pay customization inline.
func (c *CHEngine) Prepare(w roadnet.Weight, mask SlaveMask) bool {
	k := metricKey{w: w, mask: mask}
	if c.lookup(k) != nil {
		// Warm: skip building the cost function — for masked metrics
		// scalarCost precomputes a per-vertex restrict table, far more
		// than a prepare scan over many already-customized edges should
		// pay.
		return false
	}
	_, ran := c.tab.ensure(k, c.scalarCost(w, mask))
	return ran
}

// lookup returns the already customized metric for k, from the shared
// table of a Detached fork first, or nil.
func (c *CHEngine) lookup(k metricKey) *ch.Metric {
	if c.shared != nil {
		if m := c.shared.get(k); m != nil {
			return m
		}
	}
	return c.tab.get(k)
}

func (c *CHEngine) metric(w roadnet.Weight, mask SlaveMask) *ch.Metric {
	k := metricKey{w: w, mask: mask}
	if m := c.lookup(k); m != nil {
		return m
	}
	m, _ := c.tab.ensure(k, c.scalarCost(w, mask))
	return m
}

// Route implements PathEngine: every scalar weight is a customized
// metric over the shared skeleton.
func (c *CHEngine) Route(s, d roadnet.VertexID, w roadnet.Weight) (roadnet.Path, float64, bool) {
	return c.query().Route(c.metric(w, 0), s, d)
}

// Fastest implements PathEngine.
func (c *CHEngine) Fastest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return c.Route(s, d, roadnet.TT)
}

// Shortest implements PathEngine.
func (c *CHEngine) Shortest(s, d roadnet.VertexID) (roadnet.Path, float64, bool) {
	return c.Route(s, d, roadnet.DI)
}

// RoutePref implements PathEngine. The slave predicate is probed into
// its road-type mask and the query runs on the (w, mask) customized
// metric — same costs as Algorithm 2's modified Dijkstra, settled on
// the hierarchy.
func (c *CHEngine) RoutePref(s, d roadnet.VertexID, w roadnet.Weight, slave SlavePredicate) (roadnet.Path, float64, bool) {
	return c.query().Route(c.metric(w, MaskOf(slave)), s, d)
}

// CustomRoute implements PathEngine on the hierarchy: the cost function
// is evaluated once per edge into a staging buffer, hashed, and the
// resulting metric interned in the shared table — repeated queries under
// the same cost function (the common pattern: a learned weighting
// queried many times) customize once and then pay only the buffer hash
// plus a CCH query. At most maxCustomMetrics distinct custom metrics
// stay resident.
func (c *CHEngine) CustomRoute(s, d roadnet.VertexID, cost func(roadnet.EdgeID) float64) (roadnet.Path, float64, bool) {
	if c.costBuf == nil {
		c.costBuf = make([]float64, c.g.NumEdges())
	}
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for e := range c.costBuf {
		v := cost(roadnet.EdgeID(e))
		c.costBuf[e] = v
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1 // keep the custom-key marker nonzero
	}
	buf := c.costBuf
	m, _ := c.tab.ensure(metricKey{custom: h}, func(e roadnet.EdgeID) float64 { return buf[e] })
	return c.query().Route(m, s, d)
}
