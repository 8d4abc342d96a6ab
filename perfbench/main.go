// Command perfbench is the repository benchmark. It generates a
// ci-scale world with internal/worldgen, runs one workload through the
// program's public API, checks the answers, and prints one JSON line
// with every metric and its unit.
//
//	perfbench --workload read|mixed|build --seed N --seconds S --trace 0|1
//
// Every workload times one kind of operation and reports the same
// end-to-end metrics about it. With --trace 0 the line carries those.
// With --trace 1 the run measures the workload untraced, again with
// the benchmark's own spans around each operation, and then runs the
// layer probes on the workload's final state; the line carries the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    string
	// ingestEvery is the mixed workload's open-loop ingest period.
	ingestEvery time.Duration
	// workDir holds the write-ahead logs; it is removed at exit.
	workDir string
	// delay adds a fixed delay inside the named layer spans of the
	// traced run (self-test only).
	delay map[string]time.Duration
}

// scales holds the per-scale settings. ci is the benchmark; bench is
// the small world the self-tests run on.
var scales = map[string]struct{ ingestEvery time.Duration }{
	"ci":    {ingestEvery: 750 * time.Millisecond},
	"bench": {ingestEvery: 100 * time.Millisecond},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: read, mixed or build")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.scale = "ci"
	cfg.ingestEvery = scales[cfg.scale].ingestEvery
	cfg.workDir = filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))

	rep, err := run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	inputs, err := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "inputs": rep.inputs})
	if err != nil {
		log.Fatal(err)
	}
	res, err := json.Marshal(rep.result(cfg.trace))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(inputs))
	fmt.Println(string(res))
	for _, p := range rep.problems {
		log.Printf("check failed: %s", p)
	}
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// workload is one workload after its set-up. phase runs the measured
// phase once — untraced when tr is nil — and returns the latency of
// each operation it timed, in ns. final is the state the accuracy
// check and the layer probes run on.
type workload interface {
	phase(cfg config, tr *recorder, rep *report) ([]float64, error)
	final() *state
}

// state is a workload's router at the end of its phase and the
// inputs it came from.
type state struct {
	in   *inputs
	pool []od
	// snap is the router the workload served or built last.
	snap *core.Router
	// built is the workload's most recent core.Build call.
	built buildCall
}

// buildCall is one timed core.Build call and the phase times it
// reported.
type buildCall struct {
	wall  time.Duration
	stats core.Stats
}

// setups maps each workload to its set-up and how many times set-up
// runs per run; setup_s is the median. Set-up of read and mixed is a
// router build of several seconds and runs once; build's is world
// generation and runs five times.
var setups = map[string]struct {
	setup func(config) (workload, error)
	reps  int
}{
	"read":  {setupRead, 1},
	"mixed": {setupMixed, 1},
	"build": {setupBuild, 5},
}

// run sets up one workload, measures its phase, checks the final
// router's answers and, when tracing, runs the phase traced and the
// layer probes.
func run(cfg config) (*report, error) {
	s, ok := setups[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want read, mixed or build)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	rep := newReport()
	w, setup, err := timedSetup(s.reps, func() (workload, error) { return s.setup(cfg) })
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	rep.e2e("setup_s", "s", setup.Seconds())

	ops, err := w.phase(cfg, nil, rep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.e2e("heap_mb", "MiB", liveHeapMiB())
	// A run of mixed or build has too few ops for a percentile above
	// the median to have ten samples beyond it; read's tails are in
	// the input line.
	rep.e2e("op_p50_ms", "ms", quantile(scaled(ops, time.Millisecond), 0.5))
	rep.input("ops", len(ops))
	st := w.final()
	rep.e2e("eq1_acc_pct", "%", scoreHeldOut(st, cfg.seed, rep))
	rep.input("world_fingerprint", st.in.fingerprint())
	if !cfg.trace {
		return rep, nil
	}

	// The traced phase records a span around each operation; comparing
	// it with the untraced phase gives the tracing overhead. The probes
	// record into a recorder of their own.
	tops, err := w.phase(cfg, newRecorder(cfg.delay), rep)
	if err != nil {
		return nil, fmt.Errorf("%s traced: %w", cfg.workload, err)
	}
	rep.layer("bench.trace_overhead_pct", "%", overheadPct(quantile(tops, 0.5), quantile(ops, 0.5)))
	if err := probeLayers(cfg, w.final(), newRecorder(cfg.delay), rep); err != nil {
		return nil, fmt.Errorf("%s layer probes: %w", cfg.workload, err)
	}
	return rep, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, operation counts, failed checks
// and input properties.
type report struct {
	attempted, failed int64
	problems          []string
	endToEnd, layers  map[string]metric
	inputs            map[string]any
}

func newReport() *report {
	return &report{endToEnd: map[string]metric{}, layers: map[string]metric{}, inputs: map[string]any{}}
}

func (r *report) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }
func (r *report) input(name string, v any)           { r.inputs[name] = v }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// count adds operations attempted and failed; bad describes failures.
func (r *report) count(attempted, failed int64, bad []string) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.problem("%d of %d operations failed, e.g. %v", failed, attempted, bad)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) result(traced bool) result {
	m := r.endToEnd
	if traced {
		m = r.layers
	}
	return result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}
