package core

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ch"
	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/spatial"
	"repro/internal/traj"
	"repro/internal/transfer"
)

// PathBackend selects the route.PathEngine implementation every routing
// consumer of a Router runs on — the architectural seam speed-up
// techniques plug into.
type PathBackend uint8

// Path backends.
const (
	// BackendDijkstra is plain Dijkstra for every query (the original
	// behaviour).
	BackendDijkstra PathBackend = iota
	// BackendCH runs every query family on a customizable contraction
	// hierarchy: the road network is contracted once, metric-
	// independently, at Build (or EnableCH) time, and scalar weights,
	// Algorithm 2 preference searches, and custom cost functions each
	// ride the shared skeleton under their own customized metric —
	// recomputed in milliseconds when preferences change, without
	// re-contraction. The topology and the customized-metric table are
	// shared, immutable-per-version, by every Clone and serving fork.
	BackendCH
)

// String implements fmt.Stringer.
func (b PathBackend) String() string {
	if b == BackendCH {
		return "ch"
	}
	return "dijkstra"
}

// ClusterMethod selects the region-construction algorithm. The paper's
// modularity clustering is the default; the related-work methods of
// Section II are available for end-to-end ablations.
type ClusterMethod uint8

// String implements fmt.Stringer.
func (m ClusterMethod) String() string {
	switch m {
	case ClusterGrid:
		return "grid"
	case ClusterHierarchy:
		return "hierarchy"
	default:
		return "modularity"
	}
}

// Clustering methods.
const (
	// ClusterModularity is the paper's parameter-free Algorithm 1.
	ClusterModularity ClusterMethod = iota
	// ClusterGrid is the grid-based method of Wei et al. (KDD 2012).
	ClusterGrid
	// ClusterHierarchy is the road-hierarchy partition of Gonzalez et
	// al. (VLDB 2007).
	ClusterHierarchy
)

// Options configures the offline pipeline.
type Options struct {
	// ClusterMethod selects the clustering algorithm (default: the
	// paper's modularity clustering).
	ClusterMethod ClusterMethod
	// Cluster tunes the modularity clustering (ablation switches only;
	// the algorithm itself is parameter-free).
	Cluster cluster.Options
	// Grid tunes ClusterGrid; Hierarchy tunes ClusterHierarchy.
	Grid      cluster.GridClusterOptions
	Hierarchy cluster.HierarchyPartitionOptions
	// Region tunes region-graph construction.
	Region region.Options
	// Transfer tunes the preference transduction; the zero value means
	// transfer.DefaultConfig().
	Transfer transfer.Config
	// MapMatch tunes the HMM map matcher.
	MapMatch mapmatch.Config
	// SkipMapMatching trusts trajectory ground-truth paths instead of
	// map matching raw GPS records. Tests and some experiments use it to
	// decouple pipeline stages; the default (false) exercises the full
	// path from raw GPS records to routing.
	SkipMapMatching bool
	// LearnMaxPaths caps the per-T-edge path sample during preference
	// learning; 0 keeps the learner default.
	LearnMaxPaths int
	// Workers bounds pipeline parallelism; 0 means GOMAXPROCS.
	Workers int
	// IndexCellM is the spatial-index cell size (default 300 m).
	IndexCellM float64
	// MinConfidence is the training similarity a learned preference
	// must reach to be applied at query time and used as a transfer
	// label; below it the fastest-path behaviour stands in (default
	// 0.7; set negative to disable gating).
	MinConfidence float64
	// PathBackend selects the shortest-path engine (default plain
	// Dijkstra; BackendCH contracts a metric-independent hierarchy once
	// at Build time and serves scalar, preference-restricted and
	// custom-weight queries through per-metric customizations of it).
	PathBackend PathBackend
	// NoMetricPrewarm skips the PrepareMetrics pass at the end of a
	// BackendCH Build: startup gets cheaper and each metric — the three
	// scalar weights plus one per distinct learned ⟨master, slave⟩
	// preference — is customized lazily by the first query that needs
	// it, paying the customization latency inline. Serving setups
	// should keep prewarm on.
	NoMetricPrewarm bool
}

func (o Options) withDefaults() Options {
	if o.Transfer == (transfer.Config{}) {
		o.Transfer = transfer.DefaultConfig()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.IndexCellM == 0 {
		o.IndexCellM = 300
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.7
	}
	return o
}

// Stats records offline pipeline measurements; the paper reports the
// per-phase offline processing times in Section VII-C.
type Stats struct {
	Trajectories   int
	MatchedOK      int
	Regions        int
	TEdges, BEdges int
	LearnedPrefs   int
	TransferredOK  int
	NullBEdges     int

	MatchTime       time.Duration
	ClusterTime     time.Duration
	LearnTime       time.Duration
	TransferTime    time.Duration
	MaterializeTime time.Duration
	// CHBuildTime and CHShortcuts record the one-time metric-independent
	// topology contraction when the CH path backend is enabled;
	// CHCustomizeTime and CHMetrics record the last PrepareMetrics pass
	// (how long re-customizing the preference metrics took, and how many
	// metrics were customized by it).
	CHBuildTime     time.Duration
	CHShortcuts     int
	CHCustomizeTime time.Duration
	CHMetrics       int
}

// Router is a built L2R system, ready to answer routing queries.
// Building happens once offline; Route is comparatively cheap.
//
// Concurrency: a single Router is not safe for concurrent use — every
// query method reuses the per-query state of its route.PathEngine. The
// query methods (Route, RouteK, Categorize, and the read-only accessors)
// mutate nothing beyond that engine state, so independent Clones may
// answer queries concurrently as long as nothing mutates the shared
// built state: Clone forks only the engine's query state, while the
// road network, the spatial index and any CH hierarchy stay shared and
// immutable. Ingest and EnableMultiPreferences DO mutate shared state
// (the region graph's path sets and preferences, the learned map) and
// must never run concurrently with queries on the same Router or on any
// Clone sharing its region graph; for live ingestion under traffic, use
// DeepClone → Ingest → swap (internal/serve does exactly this).
type Router struct {
	road  *roadnet.Graph
	rg    *region.Graph
	eng   route.PathEngine
	idx   *spatial.Index
	stats Stats
	meta  ArtifactMeta
	// learned maps T-edge ID -> learned preference result.
	learned map[int]pref.Result
	// learnedCOW marks learned as shared with the parent this router
	// was IngestClone'd from; the relearn loop privatizes it before
	// its first write, mirroring the region graph's copy-on-write.
	learnedCOW bool
	// regionPrefs maps region ID -> preference learned from the
	// region's inner paths; used for same-region queries with no exact
	// inner-path match.
	regionPrefs map[int]pref.Result
	// multi holds optional multi-preference fits per T-edge; see
	// EnableMultiPreferences.
	multi map[int]pref.MultiResult
}

// RegionGraph exposes the underlying region graph (read-only use).
func (r *Router) RegionGraph() *region.Graph { return r.rg }

// Road returns the road network.
func (r *Router) Road() *roadnet.Graph { return r.road }

// Stats returns offline pipeline statistics.
func (r *Router) Stats() Stats { return r.stats }

// Meta returns the router's artifact metadata: its name, the options
// it was built with, and the save generation of its lineage (0 until
// the first Save).
func (r *Router) Meta() ArtifactMeta { return r.meta }

// SetName names the router's world (a city, a tenant); the name is
// persisted by Save and keys the router in multi-tenant fleets.
func (r *Router) SetName(name string) { r.meta.Name = name }

// SetGeneration positions the router in its artifact lineage: the next
// Save stamps gen+1. Checkpointing (internal/wal + serve durability)
// saves throwaway clones of the serving snapshot, so each clone must
// inherit the lineage position the previous checkpoint reached rather
// than the base router's never-advancing copy.
func (r *Router) SetGeneration(gen uint64) { r.meta.Generation = gen }

// LearnedPreference returns the learned preference for a T-edge ID.
func (r *Router) LearnedPreference(edgeID int) (pref.Result, bool) {
	res, ok := r.learned[edgeID]
	return res, ok
}

// Clone returns an independent query handle over the same built system.
// The clone shares the region graph and preference maps with r: safe for
// concurrent *queries*, but Ingest through either handle would mutate
// state visible to both. Use DeepClone when the copy must be mutated.
//
// Clone is cheap: it forks the path engine's query state (allocated
// lazily on first query), sharing the immutable road network and any CH
// hierarchy — the serving layer's per-snapshot clone pools rely on
// this.
func (r *Router) Clone() *Router {
	cp := *r
	cp.eng = r.eng.Fork()
	return &cp
}

// DeepClone returns a copy of the router whose mutable built state —
// the region graph, the learned/region/multi preference maps — is
// deep-copied, so Ingest and EnableMultiPreferences on the copy never
// affect r or its Clones. The road network and spatial index are shared
// (immutable after build). This is the copy-on-write primitive behind
// snapshot-swapped serving: clone, ingest into the clone off the query
// path, then atomically publish the clone.
func (r *Router) DeepClone() *Router {
	cp := *r
	cp.eng = r.eng.Fork()
	cp.rg = r.rg.Clone()
	cp.learnedCOW = false
	cp.learned = make(map[int]pref.Result, len(r.learned))
	for k, v := range r.learned {
		cp.learned[k] = v
	}
	cp.regionPrefs = make(map[int]pref.Result, len(r.regionPrefs))
	for k, v := range r.regionPrefs {
		cp.regionPrefs[k] = v
	}
	if r.multi != nil {
		cp.multi = make(map[int]pref.MultiResult, len(r.multi))
		for k, v := range r.multi {
			cp.multi[k] = v
		}
	}
	return &cp
}

// IngestClone returns a copy-on-write clone built for the serving swap
// path: like DeepClone, Ingest into the clone never mutates state
// reachable from r, but instead of deep-copying every region edge's
// path sets up front it shares them and privatizes exactly the edges,
// inner-path lists and transfer-center lists the ingest batch touches
// (region.Graph.CloneCOW). The per-swap cost drops from O(all stored
// paths) to O(batch). The small preference maps are copied eagerly; the
// path engine is forked as in Clone, sharing any CH topology and
// customized-metric table.
//
// The isolation contract is one-directional, matching how serving uses
// it: mutations through the clone never affect r, but r must stay
// unmutated while clones derived from it are alive (the serving layer's
// generation discipline — each generation is cloned from the previous
// and the previous only ever serves reads). Use DeepClone when both
// sides may be mutated independently.
func (r *Router) IngestClone() *Router {
	cp := *r
	cp.eng = r.eng.Fork()
	cp.rg = r.rg.CloneCOW()
	// Of the preference maps only learned is written on the ingest path
	// (the relearn loop), and it is privatized there on first write —
	// see privatizeLearned. regionPrefs and multi are fixed at
	// build/enable time, so the clone shares them outright. Anything
	// that would mutate them (EnableMultiPreferences, a re-Build)
	// belongs on a DeepClone, not an ingest generation.
	cp.learnedCOW = true
	return &cp
}

// privatizeLearned gives a copy-on-write clone its own learned map
// before the first relearn write. No-op on routers that already own
// theirs (built, deep-cloned, or already privatized).
func (r *Router) privatizeLearned() {
	if !r.learnedCOW {
		return
	}
	own := make(map[int]pref.Result, len(r.learned)+16)
	for k, v := range r.learned {
		own[k] = v
	}
	r.learned = own
	r.learnedCOW = false
}

// Build runs the full offline pipeline over a road network and a
// training trajectory set.
func Build(road *roadnet.Graph, training []*traj.Trajectory, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	r, paths, err := startBuild(road, training, opt)
	if err != nil {
		return nil, err
	}

	// Phase 1a: clustering.
	start := time.Now()
	var regions []cluster.Region
	switch opt.ClusterMethod {
	case ClusterGrid:
		regions = cluster.GridCluster(road, paths, opt.Grid)
	case ClusterHierarchy:
		regions = cluster.HierarchyPartition(road, paths, opt.Hierarchy)
	default:
		tg := cluster.BuildTrajectoryGraph(road, paths)
		regions = cluster.Cluster(tg, opt.Cluster)
	}
	r.stats.ClusterTime = time.Since(start)
	return finishBuild(r, regions, paths, opt)
}

// BuildWithRegions runs the offline pipeline over a fixed,
// caller-supplied region partition, skipping the clustering phase.
// Background maintenance keeps the partition fixed while rebuilding
// everything derived from trajectories, so its convergence contract —
// an online-maintained router equals one rebuilt from scratch over the
// union evidence — is stated (and property-tested) against this entry
// point: feed it the live router's partition plus all evidence the
// maintained router ever saw.
func BuildWithRegions(road *roadnet.Graph, regions []cluster.Region, training []*traj.Trajectory, opt Options) (*Router, error) {
	opt = opt.withDefaults()
	r, paths, err := startBuild(road, training, opt)
	if err != nil {
		return nil, err
	}
	return finishBuild(r, regions, paths, opt)
}

// startBuild validates inputs and runs phase 0 (map matching), shared
// by Build and BuildWithRegions.
func startBuild(road *roadnet.Graph, training []*traj.Trajectory, opt Options) (*Router, []roadnet.Path, error) {
	if road == nil || road.NumVertices() == 0 {
		return nil, nil, errors.New("core: empty road network")
	}
	if len(training) == 0 {
		return nil, nil, errors.New("core: no training trajectories")
	}

	r := &Router{road: road, idx: spatial.NewIndex(road, opt.IndexCellM)}
	r.stats.Trajectories = len(training)
	r.meta.Build = BuildInfo{
		PathBackend:     opt.PathBackend.String(),
		ClusterMethod:   opt.ClusterMethod.String(),
		SkipMapMatching: opt.SkipMapMatching,
		MinConfidence:   opt.MinConfidence,
		LearnMaxPaths:   opt.LearnMaxPaths,
		IndexCellM:      opt.IndexCellM,
	}

	start := time.Now()
	paths := make([]roadnet.Path, 0, len(training))
	if opt.SkipMapMatching {
		for _, t := range training {
			t.Matched = t.Truth
			paths = append(paths, t.Truth)
		}
		r.stats.MatchedOK = len(paths)
	} else {
		matchAll(road, r.idx, training, opt)
		for _, t := range training {
			if len(t.Matched) >= 2 {
				paths = append(paths, t.Matched)
				r.stats.MatchedOK++
			}
		}
	}
	r.stats.MatchTime = time.Since(start)
	if len(paths) == 0 {
		return nil, nil, errors.New("core: map matching produced no usable paths")
	}
	return r, paths, nil
}

// finishBuild runs phases 1b–3 — region graph, preference learning,
// transduction, materialization, metric prewarm — over an already
// chosen region partition.
func finishBuild(r *Router, regions []cluster.Region, paths []roadnet.Path, opt Options) (*Router, error) {
	// Phase 1b: region graph.
	start := time.Now()
	rg := region.Build(r.road, regions, paths, opt.Region)
	rg.ConnectBFS()
	r.rg = rg
	r.stats.ClusterTime += time.Since(start)
	r.stats.Regions = rg.NumRegions()
	r.stats.TEdges = rg.TEdgeCount()
	r.stats.BEdges = rg.BEdgeCount()

	// Path engine: built before learning so the learner and B-edge
	// materialization already search on the selected backend. With
	// BackendCH the hierarchy is preprocessed exactly once here and
	// shared by every Clone, DeepClone and serving fork of this router.
	r.eng = newPathEngine(r.road, opt, &r.stats)

	// Phase 2a: learn preferences for T-edges and regions (parallel).
	start = time.Now()
	r.learned, r.regionPrefs = learnAll(r.eng, rg, opt)
	r.stats.LearnTime = time.Since(start)
	r.stats.LearnedPrefs = len(r.learned)

	// Phase 2b: transfer preferences to B-edges. Only confidently
	// learned preferences serve as labels; low-similarity fits would
	// propagate noise.
	start = time.Now()
	res := r.transduce(opt)
	r.stats.TransferTime = time.Since(start)
	r.stats.TransferredOK = len(res.Pref)
	r.stats.NullBEdges = len(res.Null)

	// Record confidently learned preferences on the T-edges themselves.
	for id, lr := range r.learned {
		if lr.Similarity >= opt.MinConfidence {
			rg.Edges[id].Pref = lr.Preference
			rg.Edges[id].HasPref = true
		}
	}
	// Gate region preferences the same way.
	for id, lr := range r.regionPrefs {
		if lr.Similarity < opt.MinConfidence {
			delete(r.regionPrefs, id)
		}
	}

	// Phase 3: materialize B-edge paths.
	start = time.Now()
	transfer.Materialize(rg, res, &pathFinder{eng: r.eng.Fork()})
	r.stats.MaterializeTime = time.Since(start)

	// Pre-customize every preference metric the router routes on (CH
	// backend only), so first queries never pay customization inline.
	if !opt.NoMetricPrewarm {
		r.PrepareMetrics()
	}

	return r, nil
}

// transduce assembles the label/target sets from the current learned
// map and region graph and runs the preference transfer. Labels and
// targets are ordered canonically by region pair (not by edge ID), so
// the linear system's row order — and with it the floating-point
// summation order of the solve — is a function of the region graph's
// edge *set*: a router maintained online (whose edge IDs reflect
// discovery order across many ingests) and one rebuilt from scratch
// over the union evidence produce bit-identical transductions.
func (r *Router) transduce(opt Options) transfer.Result {
	labeled := make([]transfer.Labeled, 0, len(r.learned))
	for id, res := range r.learned {
		if res.Similarity >= opt.MinConfidence {
			labeled = append(labeled, transfer.Labeled{EdgeID: id, Pref: res.Preference})
		}
	}
	sortLabeled(r.rg, labeled)
	var targets []int
	for _, e := range r.rg.Edges {
		if e.Kind == region.BEdge {
			targets = append(targets, e.ID)
		}
	}
	sortByPair(r.rg, targets)
	return transfer.Run(r.rg, labeled, targets, opt.Transfer)
}

// newPathEngine constructs the backend Options.PathBackend selects,
// recording preprocessing cost in st.
func newPathEngine(road *roadnet.Graph, opt Options, st *Stats) route.PathEngine {
	if opt.PathBackend == BackendCH {
		start := time.Now()
		e := route.BuildCHEngine(road, roadnet.TT, ch.Config{})
		st.CHBuildTime = time.Since(start)
		st.CHShortcuts = e.Shortcuts()
		return e
	}
	return route.NewEngine(road)
}

// PathBackend reports which shortest-path backend the router runs on.
func (r *Router) PathBackend() PathBackend {
	if _, ok := r.eng.(*route.CHEngine); ok {
		return BackendCH
	}
	return BackendDijkstra
}

// EnableCH swaps the router's path engine for a CH-backed one: it
// contracts the metric-independent CCH topology over the road network
// (contraction has nothing to tune, so there is no configuration) and
// customizes every metric the router routes on (PrepareMetrics). It is
// meant for routers restored with Load — artifacts carry no hierarchy —
// and is a no-op when the router is already CH-backed. It must not be
// called concurrently with queries; Clones made afterwards share the
// hierarchy. The build time is returned (and recorded in Stats).
func (r *Router) EnableCH() time.Duration {
	if r.PathBackend() == BackendCH {
		return 0
	}
	start := time.Now()
	e := route.BuildCHEngine(r.road, roadnet.TT, ch.Config{})
	r.stats.CHBuildTime = time.Since(start)
	r.stats.CHShortcuts = e.Shortcuts()
	r.eng = e
	r.PrepareMetrics()
	return r.stats.CHBuildTime
}

// PrepareMetrics pre-customizes the CH backend for every metric the
// router currently routes on — the three scalar weights plus each
// distinct ⟨master, slave⟩ preference applied on a region edge, learned
// per region, or fitted by EnableMultiPreferences — so queries never pay
// metric customization inline. Metrics already customized are shared,
// not redone: after an ingest that re-learned preferences, only
// combinations never seen before cost anything. It returns the number
// of metrics customized now and records (count, elapsed) in Stats; a
// Dijkstra-backed router returns 0. Like Ingest, it mutates engine
// state and must not run concurrently with queries on clones sharing
// this router's engine... except that it only *adds* metric versions,
// so serving forks reading the previous metric table race-freely is
// exactly the intended use (internal/serve customizes on the clone
// before the snapshot swap).
func (r *Router) PrepareMetrics() int {
	che, ok := r.eng.(*route.CHEngine)
	if !ok {
		return 0
	}
	start := time.Now()
	n := 0
	for _, w := range []roadnet.Weight{roadnet.TT, roadnet.DI, roadnet.FC} {
		if che.Prepare(w, 0) {
			n++
		}
	}
	prep := func(p pref.Preference) {
		if che.Prepare(p.Master, p.Slave.Mask()) {
			n++
		}
	}
	for _, e := range r.rg.Edges {
		if e.HasPref {
			prep(e.Pref)
		}
	}
	for _, res := range r.regionPrefs {
		prep(res.Preference)
	}
	for _, mr := range r.multi {
		for _, wp := range mr.Prefs {
			prep(wp.Preference)
		}
	}
	r.stats.CHMetrics = n
	r.stats.CHCustomizeTime = time.Since(start)
	return n
}

// PrepareMetricsTouched is the incremental PrepareMetrics for the
// serving write path: after Ingest re-learned the preferences of
// exactly IngestStats.TouchedEdges, only those edges can have
// introduced a never-customized ⟨master, slave⟩ combination — region
// and multi preferences are fixed at build/enable time. Scanning just
// the touched IDs keeps the per-swap customize cost proportional to
// the batch, not to the region graph. Unknown IDs are skipped, so
// callers may pass IngestStats.TouchedEdges verbatim.
func (r *Router) PrepareMetricsTouched(touched []int) int {
	che, ok := r.eng.(*route.CHEngine)
	if !ok {
		return 0
	}
	start := time.Now()
	n := 0
	for _, id := range touched {
		if id < 0 || id >= len(r.rg.Edges) {
			continue
		}
		if e := r.rg.Edges[id]; e.HasPref && che.Prepare(e.Pref.Master, e.Pref.Slave.Mask()) {
			n++
		}
	}
	r.stats.CHMetrics = n
	r.stats.CHCustomizeTime = time.Since(start)
	return n
}

// sortLabeled orders labeled edges canonically by their region pair
// for deterministic, creation-history-independent matrices (each pair
// has exactly one edge, so the order is total).
func sortLabeled(rg *region.Graph, ls []transfer.Labeled) {
	sort.Slice(ls, func(i, j int) bool {
		a, b := rg.Edges[ls[i].EdgeID], rg.Edges[ls[j].EdgeID]
		if a.R1 != b.R1 {
			return a.R1 < b.R1
		}
		return a.R2 < b.R2
	})
}

// sortByPair orders edge IDs canonically by their region pair.
func sortByPair(rg *region.Graph, ids []int) {
	sort.Slice(ids, func(i, j int) bool {
		a, b := rg.Edges[ids[i]], rg.Edges[ids[j]]
		if a.R1 != b.R1 {
			return a.R1 < b.R1
		}
		return a.R2 < b.R2
	})
}

// pathFinder adapts a route.PathEngine to the transfer.Materialize
// finder interface.
type pathFinder struct{ eng route.PathEngine }

func (f *pathFinder) FindPath(p pref.Preference, s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := f.eng.RoutePref(s, d, p.Master, p.Slave.Predicate())
	return path, ok
}

func (f *pathFinder) FastestPath(s, d roadnet.VertexID) (roadnet.Path, bool) {
	path, _, ok := f.eng.Fastest(s, d)
	return path, ok
}

func matchAll(road *roadnet.Graph, idx *spatial.Index, ts []*traj.Trajectory, opt Options) {
	var wg sync.WaitGroup
	ch := make(chan *traj.Trajectory, len(ts))
	for _, t := range ts {
		ch <- t
	}
	close(ch)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := mapmatch.NewMatcher(road, idx, opt.MapMatch)
			for t := range ch {
				points := make([]geo.Point, len(t.Records))
				for i, rec := range t.Records {
					points[i] = rec.P
				}
				t.Matched = m.Match(points)
			}
		}()
	}
	wg.Wait()
}

// learnJob is one preference to learn: a T-edge or region ID and the
// path set to learn it from.
type learnJob struct {
	id    int
	paths []roadnet.Path
}

// terminalFirst picks a learning path set: terminal fragments — full
// trips between exactly this region pair, or true local trips of a
// region — carry its own routing preference undiluted, while fragments
// of trajectories merely passing through mix in the preferences of
// other region pairs. Two or more terminal fragments are trusted on
// their own; a single one could be a noise trip, so it is pooled with
// the pass-through fragments.
func terminalFirst(terminal, others []roadnet.Path) []roadnet.Path {
	if len(terminal) < 2 {
		return append(terminal, others...)
	}
	return terminal
}

// tedgeJobs lists one job per T-edge with evidence. T-edges whose path
// sets span both directions are learned from the union.
func tedgeJobs(rg *region.Graph) []learnJob {
	var jobs []learnJob
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			continue
		}
		var terminal, others []roadnet.Path
		for _, set := range [][]region.PathInfo{e.PathsFwd, e.PathsRev} {
			for _, pi := range set {
				if pi.Terminal > 0 {
					terminal = append(terminal, pi.Path)
				} else {
					others = append(others, pi.Path)
				}
			}
		}
		if ps := terminalFirst(terminal, others); len(ps) > 0 {
			jobs = append(jobs, learnJob{id: e.ID, paths: ps})
		}
	}
	return jobs
}

// regionJobs lists one intra-region job per region with inner paths.
func regionJobs(rg *region.Graph) []learnJob {
	var jobs []learnJob
	for reg := 0; reg < rg.NumRegions(); reg++ {
		var terminal, others []roadnet.Path
		for _, ip := range rg.InnerPaths(reg) {
			if len(ip.Path) < 3 {
				continue // trivial two-vertex hops carry no signal
			}
			if ip.Terminal > 0 {
				terminal = append(terminal, ip.Path)
			} else {
				others = append(others, ip.Path)
			}
		}
		if ps := terminalFirst(terminal, others); len(ps) > 0 {
			jobs = append(jobs, learnJob{id: reg, paths: ps})
		}
	}
	return jobs
}

// learnEngine returns the engine preference learning searches on: a
// Detached fork of a CCH engine, so the candidate metrics it customizes
// live in a private table that dies with the learning phase instead of
// staying resident beside the serving metrics, or a plain fork of any
// other engine.
func learnEngine(eng route.PathEngine) route.PathEngine {
	if che, ok := eng.(*route.CHEngine); ok {
		return che.Detached()
	}
	return eng.Fork()
}

// learnAll learns every T-edge and every region preference of rg on
// one learning engine over eng, so each candidate metric is customized
// at most once per build or rebuild.
func learnAll(eng route.PathEngine, rg *region.Graph, opt Options) (edges, regions map[int]pref.Result) {
	le := learnEngine(eng)
	return learnJobs(le, tedgeJobs(rg), opt), learnJobs(le, regionJobs(rg), opt)
}

// learnJobs learns the jobs on opt.Workers goroutines, each with its
// own learner on a fork of eng.
func learnJobs(eng route.PathEngine, jobs []learnJob, opt Options) map[int]pref.Result {
	out := make(map[int]pref.Result, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	ch := make(chan learnJob, len(jobs))
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := pref.NewLearnerOn(eng.Fork())
			if opt.LearnMaxPaths > 0 {
				l.MaxPaths = opt.LearnMaxPaths
			}
			for j := range ch {
				res := l.Learn(j.paths)
				mu.Lock()
				out[j.id] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}
