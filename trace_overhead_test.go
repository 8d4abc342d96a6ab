package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestTraceOverheadBudget pins the telemetry tax on the serving hot
// path: an engine carrying a *disabled* tracer must stay within 5% of
// an engine with no tracer at all on the BenchmarkServe/RouterDirectCH
// workload (Zipf-skewed queries, cache off, CH path backend — the
// configuration where per-query fixed costs are most visible). The
// disabled path is a handful of nil checks and one context miss;
// anything above the budget means tracing crept onto the fast path.
func TestTraceOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison; skipped in -short")
	}
	w := benchWorld(t)
	r := w.MustRouter()
	chRouter := r.DeepClone()
	chRouter.EnableCH()
	qs := benchQueries(t)

	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(qs)-1))
	mix := make([]int, 8192)
	for i := range mix {
		mix[i] = int(zipf.Uint64())
	}

	measure := func(e *serve.Engine) float64 {
		// Min of two runs: the second absorbs warm-up jitter.
		best := 0.0
		for run := 0; run < 2; run++ {
			res := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					q := qs[mix[i%len(mix)]]
					e.Route(q.S, q.D)
				}
			})
			ns := float64(res.NsPerOp())
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	bare := serve.NewEngine(chRouter.DeepClone(), serve.Options{CacheSize: -1})
	disabled := obs.NewTracer(obs.Config{})
	disabled.SetEnabled(false)
	traced := serve.NewEngine(chRouter.DeepClone(), serve.Options{CacheSize: -1, Tracer: disabled})

	const budget = 1.05
	var ratio float64
	for attempt := 1; attempt <= 3; attempt++ {
		base := measure(bare)
		with := measure(traced)
		ratio = with / base
		t.Logf("attempt %d: no tracer %.0f ns/op, disabled tracer %.0f ns/op, ratio %.3f", attempt, base, with, ratio)
		if ratio <= budget {
			return
		}
	}
	t.Fatalf("disabled-tracing overhead ratio %.3f exceeds the %.0f%% budget", ratio, 100*(budget-1))
}
