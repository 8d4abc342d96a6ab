package serve

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/wal"
)

// Options configures an Engine.
type Options struct {
	// Workers bounds RouteBatch parallelism (default GOMAXPROCS).
	Workers int
	// CacheSize is the route-cache capacity in entries across all
	// shards (default 4096). Negative disables caching.
	CacheSize int
	// CacheShards is the number of cache shards (default 16). More
	// shards reduce lock contention under concurrent traffic.
	CacheShards int
	// NoCoalesce disables singleflight request coalescing. By default
	// (when the cache is enabled) concurrent queries for the same
	// (src, dst, k) on the same snapshot generation collapse to one
	// route computation whose answer all of them share — a cold hot-OD
	// key hit by a thundering herd costs one search instead of one per
	// caller. Coalescing is keyed per generation, so it never serves an
	// answer computed on a pre-swap router to a post-swap query.
	NoCoalesce bool
	// Ingest tunes the copy-on-write trajectory ingestion.
	Ingest core.IngestOptions
	// MaxBodyBytes bounds the request bodies the HTTP API accepts:
	// Handler wraps every endpoint's body in http.MaxBytesReader, and
	// requests over the limit are rejected with 413. Default 8 MiB.
	MaxBodyBytes int64
	// PathBackend selects the shortest-path backend the served router
	// runs on. With core.BackendCH, a router that is still
	// Dijkstra-backed (e.g. freshly loaded from an artifact) gets its
	// contraction hierarchy built once in NewEngine, before traffic;
	// the hierarchy is immutable and shared by every pool clone and
	// every ingest swap afterwards.
	PathBackend core.PathBackend

	// WALDir enables durable ingestion: every ingest batch is appended
	// to a write-ahead log in this directory *before* the snapshot swap
	// that applies it, periodic checkpoints fold the log into a saved
	// artifact, and NewDurableEngine recovers checkpoint + log on
	// restart. Empty disables durability. Engines with a WALDir must be
	// built with NewDurableEngine — NewEngine ignores it. For a Fleet
	// the directory is a root: each tenant logs under WALDir/<tenant>/.
	WALDir string
	// CheckpointEvery is the number of trajectories appended to the WAL
	// between automatic checkpoints (default 4096). Negative disables
	// automatic checkpointing; Engine.Checkpoint still works. A
	// checkpoint runs on the write path (queries are unaffected, ingest
	// briefly stalls) and bounds both WAL disk growth and restart
	// replay time.
	CheckpointEvery int
	// WALSync selects the append fsync policy: wal.SyncAlways (the
	// default — a batch reported durable survives machine crashes) or
	// wal.SyncNone (page-cache durability: survives a process kill,
	// may lose the last seconds on power loss).
	WALSync wal.SyncPolicy
	// AsyncRecovery makes NewDurableEngine return before WAL replay
	// finishes applying: the log is scanned and verified synchronously
	// (corruption still fails construction), but batches are replayed
	// on a background goroutine. Until replay completes the engine is
	// not Ready: HTTP endpoints answer 503 and library calls block.
	AsyncRecovery bool

	// Tracer attaches request tracing: HTTP requests get a root span
	// (request ID generated or honored from X-Request-ID and echoed
	// back), every serving stage — cache lookup, coalescing, snapshot
	// acquire, region search, inner-path splice, WAL append, snapshot
	// swap, checkpoint — records a child span, completed traces land in
	// the /debug/trace ring and the slow-query log, and per-stage
	// latency histograms appear in /metrics. Nil disables tracing with
	// no measurable hot-path cost. A Fleet shares one tracer across all
	// tenant engines.
	Tracer *obs.Tracer

	// recoverHold, when set (tests only), is waited on before an async
	// recovery starts applying batches, making the recovering window
	// observable deterministically.
	recoverHold chan struct{}
	// replayHook, when set (tests only), sees the recovering base
	// router before each WAL batch replays onto it.
	replayHook func(*core.Router)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.CacheShards <= 0 {
		o.CacheShards = 16
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 4096
	}
	return o
}

// snapshot is one published generation of the router. The pool hands
// out per-goroutine clones so concurrent queries never share engine
// query state. A clone is a fork of the router's route.PathEngine: the
// immutable built state — road network, spatial index, CH hierarchy —
// is shared across every clone of the snapshot, and per-vertex search
// buffers are deferred to a clone's first query, so creating a pool
// entry costs a struct and only entries that actually serve traffic
// (and only the search kinds they serve) pay for arrays.
type snapshot struct {
	base *core.Router
	gen  uint64
	pool sync.Pool
}

func newSnapshot(base *core.Router, gen uint64) *snapshot {
	s := &snapshot{base: base, gen: gen}
	s.pool.New = func() any { return base.Clone() }
	return s
}

func (s *snapshot) borrow() *core.Router   { return s.pool.Get().(*core.Router) }
func (s *snapshot) release(r *core.Router) { s.pool.Put(r) }

// Engine serves routing queries concurrently over snapshot-swapped
// routers. All query methods are safe for concurrent use with each
// other and with Ingest/Publish; Ingest and Publish serialize among
// themselves.
type Engine struct {
	opt     Options
	snap    atomic.Pointer[snapshot]
	cache   *routeCache  // nil when disabled
	flights *flightGroup // nil when coalescing disabled
	met     metrics

	computes  atomic.Uint64 // route computations actually run
	coalesced atomic.Uint64 // queries that shared another caller's computation

	writeMu sync.Mutex // serializes Ingest and Publish

	// stream holds the optional streaming-ingestion attachment (HTTP
	// front-end + stats source); qual the optional model-quality
	// observer (shadow scorer + drift gauges, internal/quality); maint
	// the optional background maintainer (evidence accumulator +
	// rebuild triggers, internal/maint); trajSeq hands out
	// engine-unique trajectory IDs to every ingestion path.
	stream  atomic.Pointer[streamAttachment]
	qual    atomic.Pointer[qualityAttachment]
	maint   atomic.Pointer[maintAttachment]
	trajSeq atomic.Uint64

	// dur is the optional durability attachment (write-ahead log +
	// checkpointing); ready flips once the first snapshot is published
	// — immediately for NewEngine, after WAL replay for
	// NewDurableEngine (readyCh closes at the same moment).
	dur     *durability
	ready   atomic.Bool
	readyCh chan struct{}

	// trc is the optional request tracer (Options.Tracer); nil-safe
	// everywhere it is used.
	trc *obs.Tracer

	start           time.Time
	ingests         atomic.Uint64
	ingestedTrajs   atomic.Uint64
	lastStaleness   atomic.Uint64 // Float64bits of the last batch's staleness ratio
	oorVertices     atomic.Uint64 // cumulative out-of-region vertices ingested
	ingVertices     atomic.Uint64 // cumulative path vertices ingested
	lastIngestUnix  atomic.Int64  // unix nanos of the last trajectory fold-in
	lastIngestNs    atomic.Int64  // wall time of the last copy-on-write ingest
	lastSwapUnix    atomic.Int64  // unix nanos of the last snapshot swap
	lastCustomizeNs atomic.Int64  // CH re-customization time within the last ingest
	lastSwapNs      atomic.Int64  // clone+customize+publish (serving swap) time
}

// NewEngine wraps a built router for serving. The engine takes
// ownership: the caller must not mutate r (or Clones of it) afterwards.
// Durability options (Options.WALDir) are ignored here — use
// NewDurableEngine, which can fail on recovery.
func NewEngine(r *core.Router, opt Options) *Engine {
	opt = opt.withDefaults()
	if opt.PathBackend == core.BackendCH {
		// One-time preprocessing before the snapshot is published; a
		// no-op when the router was already built with BackendCH.
		r.EnableCH()
	}
	e := newBareEngine(opt)
	e.publishInitial(r)
	return e
}

// newBareEngine builds an engine with no snapshot yet — not Ready
// until publishInitial runs.
func newBareEngine(opt Options) *Engine {
	e := &Engine{opt: opt, start: time.Now(), readyCh: make(chan struct{}), trc: opt.Tracer}
	if opt.CacheSize > 0 {
		e.cache = newRouteCache(opt.CacheSize, opt.CacheShards)
		if !opt.NoCoalesce {
			e.flights = newFlightGroup()
		}
	}
	return e
}

// publishInitial installs generation 1 and marks the engine ready.
func (e *Engine) publishInitial(r *core.Router) {
	e.snap.Store(newSnapshot(r, 1))
	e.lastSwapUnix.Store(time.Now().UnixNano())
	e.ready.Store(true)
	close(e.readyCh)
}

// Ready reports whether the engine is serving. It is false only while
// a NewDurableEngine recovery with Options.AsyncRecovery is still
// replaying the write-ahead log; the HTTP API answers 503 in that
// window, and library query/ingest calls block until ready.
func (e *Engine) Ready() bool { return e.ready.Load() }

// waitReady blocks until the first snapshot is published. A no-op
// (one atomic load) on the fast path.
func (e *Engine) waitReady() {
	if e.ready.Load() {
		return
	}
	<-e.readyCh
}

// Generation returns the current snapshot generation. It starts at 1
// and increments on every Ingest or Publish.
func (e *Engine) Generation() uint64 {
	e.waitReady()
	return e.snap.Load().gen
}

// Snapshot returns the current generation's router for read-only use
// (inspection, stats). Callers must not mutate it and must not call its
// query methods concurrently with anything else; borrow a view through
// Route/RouteK instead.
func (e *Engine) Snapshot() *core.Router {
	e.waitReady()
	return e.snap.Load().base
}

// Route answers one routing query. The boolean reports whether the
// answer was shared rather than computed for this caller — a route
// cache hit, or a coalesced duplicate that rode another caller's
// in-flight computation. The result (including its Path) may be shared
// with other callers and must be treated as immutable.
func (e *Engine) Route(s, d roadnet.VertexID) (core.RouteResult, bool) {
	res, hit, _ := e.routeK(context.Background(), s, d, 1)
	return res[0], hit
}

// RouteK answers one query with up to k ranked alternatives (k <= 1
// behaves like Route). Results may be shared with other callers and
// must be treated as immutable.
func (e *Engine) RouteK(s, d roadnet.VertexID, k int) ([]core.RouteResult, bool) {
	res, hit, _ := e.routeK(context.Background(), s, d, k)
	return res, hit
}

// routeK additionally reports the generation of the snapshot that
// answered — Engine.Generation() read separately could already be a
// swap ahead of the router that computed the route. ctx carries the
// request's trace, when one is active; with a plain context every
// span call below is a nil no-op.
func (e *Engine) routeK(ctx context.Context, s, d roadnet.VertexID, k int) ([]core.RouteResult, bool, uint64) {
	if k < 1 {
		k = 1
	}
	e.waitReady()
	start := time.Now()
	snap := e.snap.Load()
	key := cacheKey{s: s, d: d, k: int32(k)}
	sp := obs.SpanFrom(ctx)
	if e.cache != nil {
		c := sp.Start("cache.lookup")
		res, ok := e.cache.get(key, snap.gen)
		c.End()
		if ok {
			sp.Annotate("cache", "hit")
			e.met.observe(res[0].Category, time.Since(start))
			return res, true, snap.gen
		}
	}
	var res []core.RouteResult
	shared := false
	if e.flights != nil {
		// Coalesce concurrent duplicates: one leader computes (and
		// fills the cache), followers share its answer. For the leader
		// the coalesce span covers the computation itself; for a
		// follower it is pure wait time.
		w := sp.Start("coalesce")
		res, shared = e.flights.do(flightKey{key: key, gen: snap.gen}, func() []core.RouteResult {
			return e.compute(ctx, snap, key, s, d, k)
		})
		w.End()
		if shared {
			sp.Annotate("coalesced", "true")
			e.coalesced.Add(1)
		}
	} else {
		res = e.compute(ctx, snap, key, s, d, k)
	}
	e.met.observe(res[0].Category, time.Since(start))
	return res, shared, snap.gen
}

// compute runs one route computation on a borrowed clone of snap's
// router and caches the answer under snap's generation.
func (e *Engine) compute(ctx context.Context, snap *snapshot, key cacheKey, s, d roadnet.VertexID, k int) []core.RouteResult {
	ctx, csp := obs.StartSpan(ctx, "route.compute")
	acq := csp.Start("snapshot.acquire")
	r := snap.borrow()
	acq.End()
	var res []core.RouteResult
	if k == 1 {
		res = []core.RouteResult{r.RouteCtx(ctx, s, d)}
	} else {
		res = r.RouteKCtx(ctx, s, d, k)
	}
	snap.release(r)
	csp.End()
	e.computes.Add(1)
	if e.cache != nil {
		// Tag the entry with the generation that computed it: if a swap
		// raced this query, the entry is already stale and the next
		// lookup discards it.
		e.cache.put(key, snap.gen, res)
	}
	return res
}

// Ingest feeds new trajectories into the served router without
// blocking queries: it copy-on-write clones the current router
// (sharing the region graph and the contraction-hierarchy topology
// with the serving generation), ingests into the clone, re-customizes
// the CH metrics the new preferences need, and atomically publishes
// the clone as the next generation. Concurrent Ingest calls serialize;
// queries keep reading the previous generation until the swap.
func (e *Engine) Ingest(ts []*traj.Trajectory) core.IngestStats {
	st, _ := e.ingest(context.Background(), ts, e.opt.Ingest)
	return st
}

// ingest additionally reports the generation it published — reading
// Generation() afterwards could observe a later concurrent swap.
func (e *Engine) ingest(ctx context.Context, ts []*traj.Trajectory, opt core.IngestOptions) (core.IngestStats, uint64) {
	st, gen, _ := e.ingestDurable(ctx, ts, opt)
	return st, gen
}

// ingestDurable is the full write path. With durability attached, the
// batch is appended to the write-ahead log *before* the snapshot swap
// (rule 5 of the snapshot contract: a crash after the append replays
// the batch; a crash before it never served the batch), and a
// checkpoint runs afterwards when enough trajectories have accumulated.
// durable reports whether the append (and its fsync, under SyncAlways)
// succeeded; an append failure is counted and the batch still serves
// from memory, so ingestion degrades to pre-WAL behavior rather than
// dropping data on a full disk.
func (e *Engine) ingestDurable(ctx context.Context, ts []*traj.Trajectory, opt core.IngestOptions) (core.IngestStats, uint64, bool) {
	e.waitReady()
	sp := obs.SpanFrom(ctx)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	durable := false
	if e.dur != nil {
		ap := sp.Start("wal.append")
		durable = e.dur.append(wal.Batch{SkipMapMatching: opt.SkipMapMatching, Trajs: ts})
		ap.End()
	}
	start := time.Now()
	cur := e.snap.Load()
	cl := sp.Start("snapshot.clone")
	next := cur.base.IngestClone()
	cl.End()
	ig := sp.Start("ingest.apply")
	st := next.Ingest(ts, opt)
	ig.End()
	cz := sp.Start("ch.customize")
	czStart := time.Now()
	next.PrepareMetricsTouched(st.TouchedEdges)
	e.lastCustomizeNs.Store(int64(time.Since(czStart)))
	cz.End()
	sw := sp.Start("snapshot.swap")
	e.snap.Store(newSnapshot(next, cur.gen+1))
	e.lastSwapUnix.Store(time.Now().UnixNano())
	sw.End()
	e.lastIngestNs.Store(int64(time.Since(start)))
	e.lastSwapNs.Store(int64(time.Since(start) - st.Elapsed))
	e.lastIngestUnix.Store(time.Now().UnixNano())
	e.ingests.Add(1)
	e.ingestedTrajs.Add(uint64(len(ts)))
	// Staleness gauges: how much of the new traffic fell outside the
	// fixed region partition — the maintenance trigger and the
	// rebuild-recommended signal both read from here.
	e.lastStaleness.Store(math.Float64bits(st.StalenessRatio()))
	e.oorVertices.Add(uint64(st.OutOfRegionVertices))
	e.ingVertices.Add(uint64(st.TotalVertices))
	if q := e.qual.Load(); q != nil && q.source != nil {
		// Offer the applied batch for shadow scoring. The contract is
		// non-blocking (sample, copy, enqueue-or-drop), so holding
		// writeMu here is fine and every ingest path — HTTP /ingest,
		// stream flushes, library calls — funnels through one hook.
		q.source.OfferTrajectories(ts)
	}
	if m := e.maint.Load(); m != nil && m.source != nil {
		// Same non-blocking contract: the maintainer copies what it
		// retains and counts the rest.
		m.source.OfferTrajectories(ts)
	}
	if e.dur != nil && durable && e.dur.shouldCheckpoint() {
		ck := sp.Start("wal.checkpoint")
		e.dur.checkpointLocked(next, e.trajSeq.Load())
		ck.End()
	}
	return st, cur.gen + 1, durable
}

// NextTrajectoryID returns the next engine-unique trajectory ID. All
// ingestion paths (HTTP /ingest, the streaming pipeline) draw from the
// same monotonic counter, so IDs never collide across requests or
// sources.
func (e *Engine) NextTrajectoryID() int { return int(e.trajSeq.Add(1) - 1) }

// IngestMatched ingests trajectories whose road-network paths are
// already resolved (Truth/Matched set — e.g. by the streaming
// pipeline's online map matching), skipping the offline matching pass
// regardless of the engine's ingest options. It reports the stats and
// the generation it published.
func (e *Engine) IngestMatched(ts []*traj.Trajectory) (core.IngestStats, uint64) {
	return e.IngestMatchedCtx(context.Background(), ts)
}

// IngestMatchedCtx is IngestMatched with request tracing: when ctx
// carries a trace (stream flush, HTTP ingest), the write path's stages
// — WAL append, snapshot clone, ingest apply, swap, checkpoint — are
// recorded as spans under it.
func (e *Engine) IngestMatchedCtx(ctx context.Context, ts []*traj.Trajectory) (core.IngestStats, uint64) {
	opt := e.opt.Ingest
	opt.SkipMapMatching = true
	return e.ingest(ctx, ts, opt)
}

// Tracer returns the engine's tracer (nil when telemetry is not
// configured — the nil *Tracer is safe to use everywhere).
func (e *Engine) Tracer() *obs.Tracer { return e.trc }

// Publish swaps in an externally built router (e.g. after a full
// offline rebuild when ingest reports RebuildRecommended, or a hot
// artifact reload) as the next generation. The engine takes ownership
// of r.
//
// On a durable engine, Publish also resets the durability baseline:
// the WAL tail predates the published router, so r is immediately
// folded into a fresh checkpoint (continuing r's own artifact lineage)
// and the log is rotated. A restart therefore recovers the published
// artifact plus whatever was ingested after it — never stale pre-reload
// batches replayed onto a post-reload base.
func (e *Engine) Publish(r *core.Router) {
	e.waitReady()
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.publishLocked(r, true)
}

// publishLocked swaps r in as the next generation and notifies the
// attached observers; writeMu held. external marks routers built
// outside this engine's serving lineage (Publish): they may sit on a
// different road network, so the WAL identity is rebound and the
// checkpoint generation resets to the artifact's own. Maintenance
// rebuilds (RebuildSnapshot) derive from the serving snapshot — same
// road, same checkpoint lineage — so they skip both and the checkpoint
// generation keeps advancing monotonically.
func (e *Engine) publishLocked(r *core.Router, external bool) uint64 {
	cur := e.snap.Load()
	gen := cur.gen + 1
	e.snap.Store(newSnapshot(r, gen))
	e.lastSwapUnix.Store(time.Now().UnixNano())
	if q := e.qual.Load(); q != nil && q.source != nil {
		// The drift baseline the observer captured describes the model
		// this publish just replaced; let it rebase on r.
		q.source.Published(r)
	}
	if m := e.maint.Load(); m != nil && m.source != nil {
		m.source.Published(r)
	}
	if e.dur != nil {
		if external {
			// The published router may sit on a different road network
			// than the one the log was bound to (an artifact swap to a
			// new world); rebind so the checkpoint and the rotated log
			// header carry the identity recovery will verify against,
			// and continue the artifact's own save lineage.
			if id, err := wal.IdentityOf(r.Road()); err == nil {
				e.dur.log.Rebind(id)
			} else {
				e.dur.checkpointFailures.Add(1)
			}
			e.dur.ckptGen.Store(r.Meta().Generation)
		}
		// Fold the published router into a fresh checkpoint and rotate
		// the log: the WAL tail predates it, and a restart must recover
		// the published state plus whatever is ingested after — never
		// stale pre-publish batches replayed onto a post-publish base.
		e.dur.checkpointLocked(r, e.trajSeq.Load())
	}
	return gen
}
