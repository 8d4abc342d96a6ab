package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/traj"
	"repro/internal/worldgen"
)

// worldSeed fixes the road network, the simulated trips and their
// train/held-out split (worldgen's 75/25 horizon cut), so every run
// measures the same built system on the same evidence. The workload
// seed draws the OD pool, the request streams, the order of the ingest
// batches, the held-out trips the accuracy check scores and, for
// build, the order in which the training trips are fed.
const worldSeed = 1

// cacheEntries is serve's default route-cache capacity, stated here so
// the OD pool can be sized against it.
const cacheEntries = 4096

// poolFactor sizes the OD pool against the cache, and zipfS/zipfV skew
// the draws over it, so that about a third of reads hit the cache.
const (
	poolFactor = 4
	zipfS      = 1.3
	zipfV      = 1000
)

// altK is the k of every RouteK request; one read in altEvery is a
// RouteK, the others Route (3:1).
const (
	altK     = 4
	altEvery = 4
)

// inputs is one workload's generated data.
type inputs struct {
	road *roadnet.Graph
	// train builds the router; held is kept out of the build and
	// supplies query ODs, ingest batches and the accuracy check.
	train, held []*traj.Trajectory
}

// makeInputs generates the world at the given scale.
func makeInputs(scale string) (*inputs, error) {
	spec, err := worldgen.ForScale(scale, worldSeed)
	if err != nil {
		return nil, err
	}
	w := worldgen.Build(spec)
	held := usable(w.Test)
	if len(w.Train) == 0 || len(held) == 0 {
		return nil, fmt.Errorf("world %s has too few usable trips", spec.Name)
	}
	return &inputs{road: w.Road, train: w.Train, held: held}, nil
}

// shuffledTrain returns the training trips in an order drawn from seed.
func (in *inputs) shuffledTrain(seed int64) []*traj.Trajectory {
	ts := append([]*traj.Trajectory(nil), in.train...)
	rng := rand.New(rand.NewSource(seed + 2))
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

// usable keeps the trips with a non-trivial driven path.
func usable(ts []*traj.Trajectory) []*traj.Trajectory {
	var out []*traj.Trajectory
	for _, t := range ts {
		if len(t.Truth) >= 2 && t.Source() != t.Destination() {
			out = append(out, t)
		}
	}
	return out
}

func (in *inputs) fingerprint() string {
	return fmt.Sprintf("%016x", worldgen.Fingerprint(in.road))
}

// servingOptions builds the router the read and mixed workloads serve:
// true paths instead of map matching, as l2rbench and POST /ingest do,
// on the CH backend.
func servingOptions() core.Options {
	return core.Options{SkipMapMatching: true, PathBackend: core.BackendCH}
}

// buildRouter times one core.Build over the given training trips.
func buildRouter(in *inputs, train []*traj.Trajectory, opt core.Options) (*core.Router, buildCall, error) {
	t0 := time.Now()
	r, err := core.Build(in.road, train, opt)
	if err != nil {
		return nil, buildCall{}, fmt.Errorf("core.Build: %w", err)
	}
	return r, buildCall{wall: time.Since(t0), stats: r.Stats()}, nil
}

// scoreHeldOut routes the ODs of three in four held-out trips, drawn
// by seed, on a private clone of the final router, requires a
// road-connected path, and returns the mean Eq. 1 score
// (eval.ScorePath) against the driven paths, in percent.
func scoreHeldOut(st *state, seed int64, rep *report) float64 {
	priv := st.snap.Clone()
	trips := append([]*traj.Trajectory(nil), st.in.held...)
	rng := rand.New(rand.NewSource(seed + 3))
	rng.Shuffle(len(trips), func(i, j int) { trips[i], trips[j] = trips[j], trips[i] })
	trips = trips[:max(1, len(trips)*3/4)]
	var (
		scores []float64
		bad    []string
	)
	for _, t := range trips {
		s, d := t.Source(), t.Destination()
		res := priv.Route(s, d)
		if !validPath(st.in.road, res.Path, s, d) {
			bad = append(bad, fmt.Sprintf("%d->%d", s, d))
			continue
		}
		eq1, _ := eval.ScorePath(st.in.road, t.Truth, res.Path)
		scores = append(scores, eq1)
	}
	rep.count(int64(len(trips)), int64(len(bad)), bad)
	return 100 * mean(scores)
}

func engineOptions(walDir string) serve.Options {
	return serve.Options{
		CacheSize:   cacheEntries,
		PathBackend: core.BackendCH,
		WALDir:      walDir,
		// No checkpoint during the run: recovery replays the whole log.
		CheckpointEvery: -1,
		WALSync:         walSync,
	}
}

type od struct{ s, d roadnet.VertexID }

// odPool returns n distinct ODs in random order: every held-out trip's
// OD, topped up with uniform random vertex pairs. heldODs counts the
// trip ODs.
func odPool(in *inputs, seed int64, n int) (pool []od, heldODs int) {
	rng := rand.New(rand.NewSource(seed + 1))
	seen := make(map[od]bool, n)
	add := func(o od) {
		if o.s != o.d && !seen[o] && len(pool) < n {
			seen[o] = true
			pool = append(pool, o)
		}
	}
	for _, t := range in.held {
		add(od{t.Source(), t.Destination()})
	}
	heldODs = len(pool)
	nv := in.road.NumVertices()
	for len(pool) < n {
		add(od{roadnet.VertexID(rng.Intn(nv)), roadnet.VertexID(rng.Intn(nv))})
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, heldODs
}

// validPath reports whether p is a road-connected path from s to d.
func validPath(g *roadnet.Graph, p roadnet.Path, s, d roadnet.VertexID) bool {
	if len(p) < 2 || p[0] != s || p[len(p)-1] != d {
		return false
	}
	for i := 1; i < len(p); i++ {
		if g.FindEdge(p[i-1], p[i]) == roadnet.NoEdge {
			return false
		}
	}
	return true
}

func samePath(a, b roadnet.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// readers is the number of closed-loop read clients: one per CPU but
// one, which is left to the Go runtime and, in mixed, to the ingester.
// With a client on every CPU the runtime's collector competed with the
// clients and the read metrics spread twice as wide between runs.
func readers() int { return max(1, runtime.NumCPU()-1) }

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timedSetup runs setup reps times and returns the last result with
// the median of the set-up times; earlier results are dropped before
// the next repetition starts.
func timedSetup[T any](reps int, setup func() (T, error)) (T, time.Duration, error) {
	var (
		v     T
		times []float64
	)
	for i := 0; i < reps; i++ {
		var zero T
		v = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		v, err = setup()
		if err != nil {
			return v, 0, err
		}
		times = append(times, float64(time.Since(t0)))
	}
	return v, time.Duration(quantile(times, 0.5)), nil
}
