package main

import (
	"time"

	"repro/internal/core"
)

// buildOptions is the paper's offline pipeline from GPS: map matching
// on, CH backend.
func buildOptions() core.Options { return core.Options{PathBackend: core.BackendCH} }

// buildEnv is the build workload: the offline pipeline from GPS over
// the training trips. Its operation is one core.Build.
type buildEnv struct {
	st state
}

func setupBuild(cfg config) (workload, error) {
	in, err := makeInputs(cfg.scale)
	if err != nil {
		return nil, err
	}
	pool, _ := odPool(in, cfg.seed, poolFactor*cacheEntries)
	return &buildEnv{st: state{in: in, pool: pool}}, nil
}

func (env *buildEnv) final() *state { return &env.st }

// phase calls core.Build until cfg.seconds have passed, at least once.
func (env *buildEnv) phase(cfg config, tr *recorder, rep *report) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start) < cfg.seconds {
		var (
			r     *core.Router
			built buildCall
			err   error
		)
		tr.call("core.build", -1, func() { r, built, err = buildRouter(env.st.in, env.st.in.shuffledTrain(cfg.seed), buildOptions()) })
		if err != nil {
			return nil, err
		}
		times = append(times, float64(built.wall))
		env.st.snap, env.st.built = r, built
	}
	rep.count(int64(len(times)), 0, nil)
	if tr == nil {
		st := env.st.built.stats
		rep.input("build_s", scaled(times, time.Second))
		rep.input("train_trips", len(env.st.in.train))
		rep.input("held_out_trips", len(env.st.in.held))
		rep.input("vertices", env.st.in.road.NumVertices())
		rep.input("regions", st.Regions)
		rep.input("region_edges", len(env.st.snap.RegionGraph().Edges))
		rep.input("matched_pct", pctOf(uint64(st.MatchedOK), uint64(st.Trajectories)))
		if st.MatchedOK == 0 {
			rep.problem("map matching matched no trajectory")
		}
	}
	return times, nil
}
