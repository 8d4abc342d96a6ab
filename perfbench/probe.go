package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ch"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/maint"
	"repro/internal/mapmatch"
	"repro/internal/pref"
	"repro/internal/region"
	"repro/internal/roadnet"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/spatial"
	"repro/internal/traj"
	"repro/internal/transfer"
	"repro/internal/wal"
)

// Sizes of the layer probes.
const (
	// routerProbes is how many ODs of the pool the router probe
	// replays on a private router.
	routerProbes = 2000
	// probeReads is how many reads the serve probe counts cache hits
	// over, after a warm-up.
	probeReads = 8192
	// probeBatches is how many held-out batches the serve probe
	// ingests.
	probeBatches = 8
	// matchTrips is how many held-out trips the map-matching probe
	// matches.
	matchTrips = 48
)

// probeLayers runs every layer probe on the workload's final state and
// reports the per-layer metrics. Every probe calls one layer's public
// function from outside, inside a span of tr, on a private copy of the
// state, so every workload reports every layer. The workload decides
// the state: the router it served or built, the evidence it holds and
// the core.Build call it made.
func probeLayers(cfg config, st *state, tr *recorder, rep *report) error {
	buildMetrics(rep, st.built)
	regionMetrics(rep, st.snap.RegionGraph())
	probeRouter(st, tr, rep)
	if err := probeServe(cfg, st, tr, rep); err != nil {
		return err
	}
	probeTransfer(st.snap, rep)
	probeMapmatch(st.in, tr, rep)
	return nil
}

// buildMetrics reports the phase times of the workload's core.Build
// call and the call's own time outside them.
func buildMetrics(rep *report, b buildCall) {
	s := b.stats
	rep.layer("cluster.s", "s", s.ClusterTime.Seconds())
	rep.layer("pref.learn_s", "s", s.LearnTime.Seconds())
	rep.layer("transfer.s", "s", s.TransferTime.Seconds())
	rep.layer("transfer.materialize_s", "s", s.MaterializeTime.Seconds())
	rep.layer("ch.topology_s", "s", s.CHBuildTime.Seconds())
	rep.layer("ch.customize_s", "s", s.CHCustomizeTime.Seconds())
	phases := s.MatchTime + s.ClusterTime + s.LearnTime + s.TransferTime + s.MaterializeTime + s.CHBuildTime + s.CHCustomizeTime
	rep.layer("core.build_self_s", "s", (b.wall - phases).Seconds())
}

// regionMetrics reports the size of a region graph and the mean number
// of stored paths per T-edge.
func regionMetrics(rep *report, rg *region.Graph) {
	paths, tedges := 0, 0
	for _, e := range rg.Edges {
		if e.Kind == region.TEdge {
			tedges++
			paths += len(e.PathsFwd) + len(e.PathsRev)
		}
	}
	rep.layer("region.tedges", "count", float64(tedges))
	rep.layer("region.bedges", "count", float64(len(rg.Edges)-tedges))
	rep.layer("region.paths_per_tedge", "count", float64(paths)/float64(max(1, tedges)))
}

// probeRouter replays pool ODs on a private Clone of the router — no
// cache, no coalescing — timing core's Route and RouteK at the read
// mix's 3:1, and times the same ODs' fastest paths on a CH engine
// built over the road network.
func probeRouter(st *state, tr *recorder, rep *report) {
	priv := st.snap.Clone()
	chEng := route.BuildCHEngine(st.in.road, roadnet.TT, ch.Config{})
	var cats [3]int64
	for i, q := range st.pool[:min(routerProbes, len(st.pool))] {
		if i%altEvery == 0 {
			tr.call("core.alt", -1, func() { priv.RouteK(q.s, q.d, altK) })
		} else {
			var res core.RouteResult
			tr.call("core.route", -1, func() { res = priv.Route(q.s, q.d) })
			cats[res.Category]++
		}
		tr.call("ch.query", -1, func() { chEng.Fastest(q.s, q.d) })
	}
	for _, m := range []string{"core.route", "core.alt"} {
		rep.layer(m+"_p50_us", "us", tr.selfQuantile(m, time.Microsecond, 0.5))
		rep.layer(m+"_p99_us", "us", tr.selfQuantile(m, time.Microsecond, 0.99))
	}
	rep.layer("ch.query_us", "us", tr.selfQuantile("ch.query", time.Microsecond, 0.5))
	shares := categoryShares(cats)
	rep.layer("core.category_in_pct", "%", shares["in"])
	rep.layer("core.category_inout_pct", "%", shares["inout"])
	rep.layer("core.category_out_pct", "%", shares["out"])
}

// probeServe runs the write path on a private durable engine over a
// deep copy of the final router, with a maintainer attached: cache
// hits under the read mix, probeBatches traced ingests beside the read
// load with their layers re-measured, a recovery of the engine's log,
// and one maintenance rebuild.
func probeServe(cfg config, st *state, tr *recorder, rep *report) error {
	walDir, err := os.MkdirTemp(cfg.workDir, "probe-wal-")
	if err != nil {
		return err
	}
	e, err := serve.NewDurableEngine(st.snap.DeepClone(), engineOptions(walDir))
	if err != nil {
		return err
	}
	defer e.Close()
	mt := maint.Attach(e, maint.Config{DriftTV: -1, MinEvidence: -1, CheckEvery: time.Hour, Core: servingOptions()})
	defer mt.Close()

	warmReads(e, st.pool, 2*len(st.pool), cfg.seed)
	before := e.Stats()
	warmReads(e, st.pool, probeReads, cfg.seed+1)
	rep.layer("serve.cache_hit_pct", "%", hitPct(before, e.Stats()))

	all, err := heldBatches(st.in)
	if err != nil {
		return err
	}
	p, err := newIngestProber(cfg, st.in.road)
	if err != nil {
		return err
	}
	defer p.log.Close()
	// The ingests run beside the read workload's readers, as in mixed:
	// an ingest's relearn then has the CPUs a served ingest has, so its
	// re-measured layers add up to its span.
	var stop atomic.Bool
	reads := make(chan *readLoad, 1)
	go func() { reads <- runReaders(e, st.in.road, st.pool, readers(), cfg.seed, &stop, nil) }()
	for _, batch := range pickBatches(all, max(0, len(all)-probeBatches), probeBatches, cfg.seed) {
		if err = p.ingest(e, batch, tr); err != nil {
			break
		}
	}
	stop.Store(true)
	l := <-reads
	rep.count(int64(len(l.route)+len(l.alt)), l.failed, l.bad)
	if err != nil {
		return err
	}
	p.report(rep, tr)
	ds := e.Stats().Durability
	rep.layer("wal.bytes_per_traj", "B", float64(ds.WALBytes)/float64(max(1, ds.WALTrajectories)))

	if err := probeRecovery(cfg, st, walDir, ds.WALRecords, rep); err != nil {
		return err
	}
	return probeRebuild(e, mt, st, tr, rep)
}

// ingestProber times each ingest of the serve probe and re-runs its
// layers right after it on the inputs it saw: region.AddPaths on a
// copy-on-write clone of the graph before the batch, pref.Learn on
// every touched edge's path set after it, the learner's candidate
// searches on the first touched edge, and a WAL append of the batch
// into a scratch log.
type ingestProber struct {
	g      *roadnet.Graph
	log    *wal.Log
	search *searchProbe

	coreMs, attrib, touched, relearned []float64
}

func newIngestProber(cfg config, g *roadnet.Graph) (*ingestProber, error) {
	id, err := wal.IdentityOf(g)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "scratch-wal-")
	if err != nil {
		return nil, err
	}
	log, _, err := wal.Open(dir, id, walSync, 0, nil)
	if err != nil {
		return nil, err
	}
	return &ingestProber{g: g, log: log, search: newSearchProbe(g)}, nil
}

func (p *ingestProber) ingest(e *serve.Engine, batch []*traj.Trajectory, tr *recorder) error {
	pre := e.Snapshot()
	var st core.IngestStats
	id, span := tr.call("serve.ingest", -1, func() { st, _ = e.IngestMatched(batch) })
	tr.child("core.ingest", id, st.Elapsed)
	sst := e.Stats()
	tr.value("serve.swap", sst.SwapLag)
	tr.value("ch.customize", sst.CustomizeLag)

	paths := make([]roadnet.Path, 0, len(batch))
	for _, t := range batch {
		paths = append(paths, t.Truth)
	}
	rg := pre.RegionGraph().CloneCOW()
	_, regionD := tr.call("region.add_paths", -1, func() { rg.AddPaths(paths, region.Options{}) })

	post := e.Snapshot().RegionGraph()
	learner := pref.NewLearner(p.g)
	var learnD time.Duration
	for _, eid := range st.TouchedEdges {
		ps := edgePaths(post.Edges[eid])
		if len(ps) == 0 {
			continue
		}
		_, d := tr.call("pref.learn", -1, func() { learner.Learn(ps) })
		learnD += d
	}
	if len(st.TouchedEdges) > 0 {
		p.search.run(edgePaths(post.Edges[st.TouchedEdges[0]]), tr)
	}
	var err error
	tr.call("wal.append", -1, func() { _, err = p.log.Append(wal.Batch{SkipMapMatching: true, Trajs: batch}) })
	if err != nil {
		return fmt.Errorf("scratch WAL append: %w", err)
	}

	p.coreMs = append(p.coreMs, float64(st.Elapsed)/float64(time.Millisecond))
	p.touched = append(p.touched, float64(len(st.TouchedEdges)))
	p.relearned = append(p.relearned, float64(st.Relearned))
	// The serve layer's own time (span minus IngestStats.Elapsed) plus
	// the re-measured region and pref layers should add up to the span.
	parts := span - st.Elapsed + regionD + learnD
	p.attrib = append(p.attrib, 100*float64(parts)/float64(span))
	return nil
}

func (p *ingestProber) report(rep *report, tr *recorder) {
	rep.layer("serve.ingest_self_ms", "ms", tr.selfQuantile("serve.ingest", time.Millisecond, 0.5))
	rep.layer("serve.swap_us", "us", tr.selfQuantile("serve.swap", time.Microsecond, 0.5))
	rep.layer("ch.customize_us", "us", tr.selfQuantile("ch.customize", time.Microsecond, 0.5))
	rep.layer("core.ingest_p50_ms", "ms", quantile(p.coreMs, 0.5))
	rep.layer("core.ingest_p90_ms", "ms", quantile(p.coreMs, 0.9))
	rep.layer("core.touched_edges", "count", mean(p.touched))
	rep.layer("core.relearned", "count", mean(p.relearned))
	rep.layer("region.add_paths_ms", "ms", tr.selfQuantile("region.add_paths", time.Millisecond, 0.5))
	rep.layer("pref.learn_p50_us", "us", tr.selfQuantile("pref.learn", time.Microsecond, 0.5))
	rep.layer("pref.learn_p90_us", "us", tr.selfQuantile("pref.learn", time.Microsecond, 0.9))
	rep.layer("pref.learn_calls", "count", float64(len(tr.selfTimes("pref.learn"))))
	rep.layer("wal.append_us", "us", tr.selfQuantile("wal.append", time.Microsecond, 0.5))
	rep.layer("bench.ingest_attrib_pct", "%", quantile(p.attrib, 0.5))
	p.search.report(rep, tr)
}

// probeRecovery copies the serve probe's log twice: it times wal.Open
// with a no-op apply over one copy (the read-and-verify part of
// recovery) and NewDurableEngine over the other on a fresh copy of the
// final router; the difference is the replay.
func probeRecovery(cfg config, st *state, walDir string, records uint64, rep *report) error {
	var dirs [2]string
	for i := range dirs {
		d, err := os.MkdirTemp(cfg.workDir, "probe-recover-")
		if err != nil {
			return err
		}
		if err := copyFile(filepath.Join(walDir, wal.LogName), filepath.Join(d, wal.LogName)); err != nil {
			return err
		}
		dirs[i] = d
	}
	id, err := wal.IdentityOf(st.in.road)
	if err != nil {
		return err
	}
	t0 := time.Now()
	log, _, err := wal.Open(dirs[0], id, walSync, 0, func(uint64, wal.Batch) error { return nil })
	scan := time.Since(t0)
	if err != nil {
		return fmt.Errorf("scanning the probe log: %w", err)
	}
	if err := log.Close(); err != nil {
		return err
	}
	base := st.snap.DeepClone()
	t0 = time.Now()
	rec, err := serve.NewDurableEngine(base, engineOptions(dirs[1]))
	recovery := time.Since(t0)
	if err != nil {
		return fmt.Errorf("recovering the probe log: %w", err)
	}
	defer rec.Close()
	if got := rec.Stats().Durability.ReplayedRecords; uint64(got) != records {
		rep.problem("probe recovery replayed %d of %d WAL records", got, records)
	}
	rep.layer("wal.scan_ms", "ms", float64(scan)/float64(time.Millisecond))
	rep.layer("serve.recovery_apply_s", "s", (recovery - scan).Seconds())
	return nil
}

// probeRebuild times one maintenance rebuild of the serve probe's
// engine over the evidence it ingested, and requires the rebuilt
// snapshot to answer the held-out ODs with valid paths.
func probeRebuild(e *serve.Engine, mt *maint.Maintainer, st *state, tr *recorder, rep *report) error {
	var (
		rst core.RetransduceStats
		err error
	)
	id, span := tr.call("maint.rebuild", -1, func() { rst, err = mt.TriggerNow(context.Background()) })
	if err != nil {
		return fmt.Errorf("maintenance rebuild: %w", err)
	}
	tr.child("pref.relearn", id, rst.LearnTime)
	tr.child("transfer.rebuild", id, rst.TransferTime)
	tr.child("transfer.rebuild_materialize", id, rst.MaterializeTime)
	rep.layer("pref.relearn_s", "s", rst.LearnTime.Seconds())
	rep.layer("transfer.rebuild_s", "s", rst.TransferTime.Seconds())
	self := tr.selfQuantile("maint.rebuild", time.Second, 0.5)
	rep.layer("maint.rebuild_self_s", "s", self)
	// Share of the rebuild span that the relearn, transfer and
	// materialize layers account for; the rest is maint's own time.
	rep.layer("bench.rebuild_attrib_pct", "%", 100*(1-self/span.Seconds()))
	if self < 0 {
		rep.problem("rebuild phase times exceed the rebuild span by %.3f s", -self)
	}

	var bad []string
	for _, t := range st.in.held {
		res, _ := e.Route(t.Source(), t.Destination())
		if !validPath(st.in.road, res.Path, t.Source(), t.Destination()) {
			bad = append(bad, fmt.Sprintf("%d->%d", t.Source(), t.Destination()))
		}
	}
	rep.count(int64(1+len(st.in.held)), int64(len(bad)), bad)
	return nil
}

// probeTransfer reports the transduction's input size — the region-edge
// pairs the ReSim scan compares and the adjacency entries it keeps at
// the configured threshold — and the CG iterations of one transfer.Run
// over the final region graph.
func probeTransfer(r *core.Router, rep *report) {
	rg := r.RegionGraph()
	var targets []int
	var labeled []transfer.Labeled
	for _, e := range rg.Edges {
		if e.Kind != region.TEdge {
			targets = append(targets, e.ID)
			continue
		}
		if lr, ok := r.LearnedPreference(e.ID); ok && lr.Similarity >= 0.7 {
			labeled = append(labeled, transfer.Labeled{EdgeID: e.ID, Pref: lr.Preference})
		}
	}
	cfg := transfer.DefaultConfig()
	order := make([]int, 0, len(labeled)+len(targets))
	for _, l := range labeled {
		order = append(order, l.EdgeID)
	}
	order = append(order, targets...)
	n := float64(len(order))
	rep.layer("transfer.resim_pairs", "count", n*(n-1)/2)
	rep.layer("transfer.adj_nnz", "count", float64(transfer.AdjacencyDensity(rg, order, cfg.AMR)))
	res := transfer.Run(rg, labeled, targets, cfg)
	rep.layer("sparse.cg_iters", "count", float64(res.SolveIterations))
}

// probeMapmatch map-matches matchTrips evenly spaced held-out trips
// from their GPS records, as core.Build does for the training trips.
func probeMapmatch(in *inputs, tr *recorder, rep *report) {
	m := mapmatch.NewMatcher(in.road, spatial.NewIndex(in.road, 300), mapmatch.Config{})
	step := max(1, len(in.held)/matchTrips)
	tried, matched := 0, 0
	for i := 0; i < len(in.held); i += step {
		t := in.held[i]
		points := make([]geo.Point, len(t.Records))
		for j, r := range t.Records {
			points[j] = r.P
		}
		var p roadnet.Path
		tr.call("mapmatch.match", -1, func() { p = m.Match(points) })
		tried++
		if len(p) >= 2 {
			matched++
		}
	}
	rep.layer("mapmatch.traj_ms", "ms", tr.selfQuantile("mapmatch.match", time.Millisecond, 0.5))
	rep.layer("mapmatch.matched_pct", "%", pctOf(uint64(matched), uint64(tried)))
}

// candidate is one preference the learner tries on a path sample.
type candidate struct {
	master roadnet.Weight
	slave  pref.SlaveFeature
}

// candidates approximates the learner's search: every master cost
// feature alone, then every candidate slave feature under the two
// masters the learner keeps (fixed here to TT and DI), 21 in all.
func candidates() []candidate {
	var out []candidate
	for w := roadnet.Weight(0); w < roadnet.NumCostWeights; w++ {
		out = append(out, candidate{w, pref.NoSlave})
	}
	for _, w := range []roadnet.Weight{roadnet.TT, roadnet.DI} {
		for _, s := range pref.CandidateSlaves() {
			out = append(out, candidate{w, s})
		}
	}
	return out
}

// searchProbe times the learner's inner search — RoutePref for each
// candidate on a path sample's endpoints — on the Dijkstra engine the
// learner uses and on a CH engine over the same network.
type searchProbe struct {
	dij         *route.Engine
	cch         *route.CHEngine
	cands       []candidate
	unreachable int
	searches    int
}

func newSearchProbe(g *roadnet.Graph) *searchProbe {
	p := &searchProbe{dij: route.NewEngine(g), cch: route.BuildCHEngine(g, roadnet.TT, ch.Config{}), cands: candidates()}
	for _, c := range p.cands {
		p.cch.Prepare(c.master, c.slave.Mask())
	}
	return p
}

// samplePaths keeps up to n evenly spaced paths of at least two
// vertices, as the learner samples a T-edge's path set.
func samplePaths(paths []roadnet.Path, n int) []roadnet.Path {
	var ok []roadnet.Path
	for _, p := range paths {
		if len(p) >= 2 {
			ok = append(ok, p)
		}
	}
	if len(ok) <= n {
		return ok
	}
	out := make([]roadnet.Path, 0, n)
	step := float64(len(ok)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, ok[int(float64(i)*step)])
	}
	return out
}

// learnSample is the learner's default per-edge path cap.
const learnSample = 8

func (p *searchProbe) run(paths []roadnet.Path, tr *recorder) {
	for _, path := range samplePaths(paths, learnSample) {
		s, d := path[0], path[len(path)-1]
		for _, c := range p.cands {
			pred := c.slave.Predicate()
			var ok bool
			tr.call("route.pref_query", -1, func() { _, _, ok = p.dij.RoutePref(s, d, c.master, pred) })
			tr.call("ch.pref_query", -1, func() { p.cch.RoutePref(s, d, c.master, pred) })
			p.searches++
			if !ok {
				p.unreachable++
			}
		}
	}
}

func (p *searchProbe) report(rep *report, tr *recorder) {
	rep.layer("route.pref_query_us", "us", tr.selfQuantile("route.pref_query", time.Microsecond, 0.5))
	rep.layer("ch.pref_query_us", "us", tr.selfQuantile("ch.pref_query", time.Microsecond, 0.5))
	rep.layer("route.pref_unreachable_pct", "%", pctOf(uint64(p.unreachable), uint64(p.searches)))
}

// edgePaths returns every stored path of a region edge, both
// directions, as Router.Ingest hands them to the learner.
func edgePaths(e *region.Edge) []roadnet.Path {
	ps := make([]roadnet.Path, 0, len(e.PathsFwd)+len(e.PathsRev))
	for _, pi := range e.PathsFwd {
		ps = append(ps, pi.Path)
	}
	for _, pi := range e.PathsRev {
		ps = append(ps, pi.Path)
	}
	return ps
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
