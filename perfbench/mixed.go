package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/wal"
)

// walSync is the WAL flush policy of every durable engine the
// benchmark runs: appends go to the page cache, which survives the
// simulated crash (a process that stops serving), so the runs measure
// the write path, not the disk.
const walSync = wal.SyncNone

// ingestBatch is the number of held-out trips per IngestMatched call.
const ingestBatch = 4

// heldBatches groups the held-out trips, in world order, into ingest
// batches.
func heldBatches(in *inputs) ([][]*traj.Trajectory, error) {
	var out [][]*traj.Trajectory
	for i := 0; i+ingestBatch <= len(in.held); i += ingestBatch {
		out = append(out, in.held[i:i+ingestBatch])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fewer than %d held-out trips", ingestBatch)
	}
	return out, nil
}

// pickBatches returns n batches starting at batch from, cycling
// through the held-out set, in an order drawn from seed.
func pickBatches(batches [][]*traj.Trajectory, from, n int, seed int64) [][]*traj.Trajectory {
	out := make([][]*traj.Trajectory, n)
	for i := range out {
		out[i] = batches[(from+i)%len(batches)]
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixedEnv is the mixed workload: one open-loop ingester beside the
// read workload's readers on a durable engine. Its operation is one
// IngestMatched batch, timed from its due time to the swap.
type mixedEnv struct {
	st state
	e  *serve.Engine
	// base is an untouched copy of the served router until the crash
	// check replays the log onto it, as a restarted process would onto
	// its artifact.
	base    *core.Router
	walDir  string
	heldODs int
	batches [][]*traj.Trajectory
	// phases counts the phases run; phase i ingests the batches from
	// i*n on, so every seed ingests the same batches in its own order.
	phases int
}

func setupMixed(cfg config) (workload, error) {
	in, err := makeInputs(cfg.scale)
	if err != nil {
		return nil, err
	}
	batches, err := heldBatches(in)
	if err != nil {
		return nil, err
	}
	r, built, err := buildRouter(in, in.train, servingOptions())
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(cfg.workDir, "wal-")
	if err != nil {
		return nil, err
	}
	base := r.DeepClone()
	e, err := serve.NewDurableEngine(r, engineOptions(walDir))
	if err != nil {
		return nil, err
	}
	pool, heldODs := odPool(in, cfg.seed, poolFactor*cacheEntries)
	warmReads(e, pool, 2*len(pool), cfg.seed)
	return &mixedEnv{st: state{in: in, pool: pool, snap: r, built: built}, e: e, base: base, walDir: walDir,
		heldODs: heldODs, batches: batches}, nil
}

func (env *mixedEnv) final() *state {
	env.st.snap = env.e.Snapshot()
	return &env.st
}

// phase runs the readers and the open-loop ingester for cfg.seconds.
func (env *mixedEnv) phase(cfg config, tr *recorder, rep *report) ([]float64, error) {
	var stop atomic.Bool
	reads := make(chan *readLoad, 1)
	rtr := tr.fork()
	before := env.e.Stats()
	go func() { reads <- runReaders(env.e, env.st.in.road, env.st.pool, readers(), cfg.seed, &stop, rtr) }()

	n := int((cfg.seconds + cfg.ingestEvery - 1) / cfg.ingestEvery)
	batches := pickBatches(env.batches, env.phases*n, n, cfg.seed+int64(env.phases))
	env.phases++
	var ingest, late, touched []float64
	start := time.Now()
	for i, batch := range batches {
		due := start.Add(time.Duration(i) * cfg.ingestEvery)
		time.Sleep(time.Until(due))
		late = append(late, float64(time.Since(due)))
		var st core.IngestStats
		id, _ := tr.call("serve.ingest", -1, func() { st, _ = env.e.IngestMatched(batch) })
		ingest = append(ingest, float64(time.Since(due)))
		tr.child("core.ingest", id, st.Elapsed)
		touched = append(touched, float64(len(st.TouchedEdges)))
	}
	stop.Store(true)
	l := <-reads
	tr.merge(rtr)
	rep.count(int64(len(l.route)+len(l.alt)), l.failed, l.bad)
	rep.count(int64(len(ingest)), 0, nil)

	ds := env.e.Stats().Durability
	if ds == nil {
		return nil, fmt.Errorf("engine has no write-ahead log")
	}
	if ds.WALAppendFailures > 0 {
		rep.problem("%d WAL appends failed", ds.WALAppendFailures)
	}
	if tr == nil {
		readInputs(rep, l, before, env.e.Stats())
		rep.input("od_pool_held_out_trips", env.heldODs)
		rep.input("ingest_batch", ingestBatch)
		rep.input("ingest_every_ms", cfg.ingestEvery.Milliseconds())
		rep.input("ingest_p90_ms", quantile(scaled(ingest, time.Millisecond), 0.9))
		rep.input("ingest_late_p90_ms", quantile(scaled(late, time.Millisecond), 0.9))
		rep.input("touched_edges_per_batch", mean(touched))
		rep.input("wal_sync", walSync.String())
		rep.input("wal_records", ds.WALRecords)
		rep.input("region_edges", len(env.e.Snapshot().RegionGraph().Edges))
		if err := env.crashCheck(cfg, rep, ds.WALRecords); err != nil {
			return nil, err
		}
	}
	return ingest, nil
}

// crashCheck simulates a crash after the phase: it recovers a copy of
// the engine's log onto the base router with NewDurableEngine, as a
// restarted process would, and requires the recovered engine to replay
// every record and to answer a fixed OD set path for path like the
// engine before the crash. The recovery time is an input property;
// the base copy is dropped afterwards so that heap_mb does not count
// it.
func (env *mixedEnv) crashCheck(cfg config, rep *report, records uint64) error {
	ods := env.st.pool[:min(checkODs, len(env.st.pool))]
	before := make([]roadnet.Path, len(ods))
	for i, o := range ods {
		res, _ := env.e.Route(o.s, o.d)
		before[i] = res.Path
	}
	dir, err := os.MkdirTemp(cfg.workDir, "crashed-")
	if err != nil {
		return err
	}
	if err := copyFile(filepath.Join(env.walDir, wal.LogName), filepath.Join(dir, wal.LogName)); err != nil {
		return err
	}
	t0 := time.Now()
	rec, err := serve.NewDurableEngine(env.base, engineOptions(dir))
	rep.input("recovery_s", time.Since(t0).Seconds())
	env.base = nil
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer rec.Close()
	if got := rec.Stats().Durability.ReplayedRecords; uint64(got) != records {
		rep.problem("recovery replayed %d of %d WAL records", got, records)
	}
	mismatch := 0
	for i, o := range ods {
		res, _ := rec.Route(o.s, o.d)
		if !samePath(res.Path, before[i]) {
			mismatch++
		}
	}
	rep.count(int64(1+len(ods)), 0, nil)
	if mismatch > 0 {
		rep.problem("recovered engine answers %d of %d fixed ODs differently than before the crash", mismatch, len(ods))
	}
	return nil
}
