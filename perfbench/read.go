package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
)

// readLoad is what the closed-loop readers measured.
type readLoad struct {
	route, alt []float64 // latencies, ns
	cats       [3]int64  // answers per core.Category
	failed     int64
	bad        []string // first few invalid answers
	elapsed    time.Duration
}

func (l *readLoad) add(o *readLoad) {
	l.route = append(l.route, o.route...)
	l.alt = append(l.alt, o.alt...)
	for i := range l.cats {
		l.cats[i] += o.cats[i]
	}
	l.failed += o.failed
	for _, b := range o.bad {
		if len(l.bad) < 5 {
			l.bad = append(l.bad, b)
		}
	}
}

// latencies returns every read's latency, Route and RouteK together.
func (l *readLoad) latencies() []float64 {
	return append(append([]float64(nil), l.route...), l.alt...)
}

// runReaders drives n closed-loop clients against e until stop is
// set; client i draws from seed and i. Each answer is checked to be a
// road-connected path from s to d. The clients' spans are merged into
// tr on return; the caller must not record into tr meanwhile.
func runReaders(e *serve.Engine, g *roadnet.Graph, pool []od, n int, seed int64, stop *atomic.Bool, tr *recorder) *readLoad {
	loads := make([]*readLoad, n)
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		loads[i] = &readLoad{}
		recs[i] = tr.fork()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
			readClient(e, g, pool, rng, stop, recs[i], loads[i])
		}(i)
	}
	wg.Wait()
	total := &readLoad{elapsed: time.Since(start)}
	for i, l := range loads {
		total.add(l)
		tr.merge(recs[i])
	}
	return total
}

func readClient(e *serve.Engine, g *roadnet.Graph, pool []od, rng *rand.Rand, stop *atomic.Bool, tr *recorder, l *readLoad) {
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(pool)-1))
	for !stop.Load() {
		o := pool[zipf.Uint64()]
		k := 1
		if rng.Intn(altEvery) == 0 {
			k = altK
		}
		var res []core.RouteResult
		name := "serve.route"
		if k > 1 {
			name = "serve.route_k"
		}
		_, d := tr.call(name, -1, func() {
			if k == 1 {
				r, _ := e.Route(o.s, o.d)
				res = []core.RouteResult{r}
			} else {
				res, _ = e.RouteK(o.s, o.d, k)
			}
		})
		if k == 1 {
			l.route = append(l.route, float64(d))
		} else {
			l.alt = append(l.alt, float64(d))
		}
		ok := len(res) > 0
		for _, r := range res {
			if !validPath(g, r.Path, o.s, o.d) {
				ok = false
			}
		}
		if !ok {
			l.failed++
			if len(l.bad) < 5 {
				l.bad = append(l.bad, fmt.Sprintf("k=%d %d->%d: no valid path", k, o.s, o.d))
			}
			continue
		}
		l.cats[res[0].Category]++
	}
}

// readPhase runs the closed-loop readers against e for cfg.seconds and
// counts their reads.
func readPhase(cfg config, e *serve.Engine, g *roadnet.Graph, pool []od, tr *recorder, rep *report) *readLoad {
	var stop atomic.Bool
	timer := time.AfterFunc(cfg.seconds, func() { stop.Store(true) })
	defer timer.Stop()
	l := runReaders(e, g, pool, readers(), cfg.seed, &stop, tr)
	rep.count(int64(len(l.route)+len(l.alt)), l.failed, l.bad)
	return l
}

// warmReads sends n requests from one client before timing starts, so
// the cache and the snapshot's pool of router clones are filled.
func warmReads(e *serve.Engine, pool []od, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed - 1))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(pool)-1))
	for i := 0; i < n; i++ {
		o := pool[zipf.Uint64()]
		if i%altEvery == 0 {
			e.RouteK(o.s, o.d, altK)
		} else {
			e.Route(o.s, o.d)
		}
	}
}

// readEnv is the read workload: closed-loop readers on a fixed
// snapshot. Its operation is one read, Route or RouteK.
type readEnv struct {
	st      state
	e       *serve.Engine
	heldODs int
	checked bool
}

func setupRead(cfg config) (workload, error) {
	in, err := makeInputs(cfg.scale)
	if err != nil {
		return nil, err
	}
	r, built, err := buildRouter(in, in.train, servingOptions())
	if err != nil {
		return nil, err
	}
	e := serve.NewEngine(r, engineOptions(""))
	pool, heldODs := odPool(in, cfg.seed, poolFactor*cacheEntries)
	warmReads(e, pool, 2*len(pool), cfg.seed)
	return &readEnv{st: state{in: in, pool: pool, snap: r, built: built}, e: e, heldODs: heldODs}, nil
}

func (env *readEnv) final() *state { return &env.st }

func (env *readEnv) phase(cfg config, tr *recorder, rep *report) ([]float64, error) {
	before := env.e.Stats()
	l := readPhase(cfg, env.e, env.st.in.road, env.st.pool, tr, rep)
	if tr == nil {
		readInputs(rep, l, before, env.e.Stats())
		rep.input("od_pool_held_out_trips", env.heldODs)
	}
	if !env.checked {
		env.checked = true
		checkAgainstRouter(env, rep)
	}
	return l.latencies(), nil
}

// readInputs records a read phase's input properties and the split of
// its latency by request kind.
func readInputs(rep *report, l *readLoad, before, after serve.Stats) {
	us := func(xs []float64) []float64 { return scaled(xs, time.Microsecond) }
	route, alt := us(l.route), us(l.alt)
	rep.input("route_p50_us", quantile(route, 0.5))
	rep.input("route_p99_us", quantile(route, 0.99))
	rep.input("alt_p50_us", quantile(alt, 0.5))
	rep.input("alt_p99_us", quantile(alt, 0.99))
	rep.input("read_rps", float64(len(l.route)+len(l.alt))/l.elapsed.Seconds())
	rep.input("route_samples", len(l.route))
	rep.input("alt_samples", len(l.alt))
	rep.input("readers", readers())
	rep.input("od_pool", poolFactor*cacheEntries)
	rep.input("cache_entries", cacheEntries)
	rep.input("cache_hit_pct", hitPct(before, after))
	rep.input("category_pct", categoryShares(l.cats))
}

// checkODs is the size of the fixed OD set the answer checks use.
const checkODs = 240

// checkAgainstRouter requires the engine's answers on a fixed OD set —
// cached or computed — to equal a cache-free router's, path for path.
func checkAgainstRouter(env *readEnv, rep *report) {
	ref := env.e.Snapshot().Clone()
	n := min(checkODs, len(env.st.pool))
	mismatch := 0
	for _, o := range env.st.pool[:n] {
		got, _ := env.e.RouteK(o.s, o.d, altK)
		want := ref.RouteK(o.s, o.d, altK)
		one, _ := env.e.Route(o.s, o.d)
		if len(got) != len(want) || !samePath(one.Path, ref.Route(o.s, o.d).Path) {
			mismatch++
			continue
		}
		for i := range got {
			if !samePath(got[i].Path, want[i].Path) {
				mismatch++
				break
			}
		}
	}
	rep.count(int64(2*n), 0, nil)
	if mismatch > 0 {
		rep.problem("%d of %d fixed ODs answered differently by the engine and a cache-free router", mismatch, n)
	}
}

func categoryShares(c [3]int64) map[string]float64 {
	total := uint64(c[0] + c[1] + c[2])
	return map[string]float64{
		"in":    pctOf(uint64(c[core.InRegion]), total),
		"inout": pctOf(uint64(c[core.InOutRegion]), total),
		"out":   pctOf(uint64(c[core.OutRegion]), total),
	}
}

// hitPct is the route cache's hit share between two Stats readings.
func hitPct(before, after serve.Stats) float64 {
	hits := after.CacheHits - before.CacheHits
	return pctOf(hits, hits+after.CacheMisses-before.CacheMisses)
}

func pctOf(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// overheadPct is how much slower the traced value is than the
// untraced one, in percent.
func overheadPct(traced, untraced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}
