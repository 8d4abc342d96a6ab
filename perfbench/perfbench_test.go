package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// declared reads the metric units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func testConfig(t *testing.T, workload, scale string, trace bool) config {
	return config{
		workload:    workload,
		seed:        3,
		seconds:     time.Second,
		trace:       trace,
		scale:       scale,
		ingestEvery: scales[scale].ingestEvery,
		workDir:     t.TempDir(),
	}
}

func mustRun(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 || rep.failed > 0 || rep.attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d, problems %v", cfg.workload, rep.attempted, rep.failed, rep.problems)
	}
	return rep
}

// workloads are the workloads the benchmark runs.
var workloads = []string{"read", "mixed", "build"}

// TestSmokeEveryMetric runs every workload on the bench-scale world,
// untraced and traced, and requires each to emit exactly the metrics
// BENCHMARK.json declares, with the declared units, as finite numbers.
func TestSmokeEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, workload := range workloads {
		for _, trace := range []bool{false, true} {
			rep := mustRun(t, testConfig(t, workload, "bench", trace))
			units := endToEnd
			if trace {
				units = perLayer
			}
			got := rep.result(trace).Metrics
			if len(got) != len(units) {
				t.Errorf("%s trace=%v: %d metrics, want %d: %v", workload, trace, len(got), len(units), got)
			}
			for n, unit := range units {
				m, ok := got[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", workload, trace, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", workload, trace, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", workload, trace, n, m.Value)
				}
			}
		}
	}
}

// TestInjectedDelayShowsInOneLayer slows the serve layer's ingest call
// by a fixed delay inside the benchmark's own span and requires the
// per-layer diff to name exactly that layer.
func TestInjectedDelayShowsInOneLayer(t *testing.T) {
	const delay = 50 * time.Millisecond
	base := mustRun(t, testConfig(t, "read", "bench", true)).layers
	cfg := testConfig(t, "read", "bench", true)
	cfg.delay = map[string]time.Duration{"serve.ingest": delay}
	slow := mustRun(t, cfg).layers

	units := map[string]time.Duration{"us": time.Microsecond, "ms": time.Millisecond}
	layers := []string{"serve.ingest_self_ms", "serve.swap_us", "ch.customize_us", "core.ingest_p50_ms",
		"region.add_paths_ms", "pref.learn_p50_us", "wal.append_us", "route.pref_query_us", "ch.pref_query_us"}
	for _, n := range layers {
		unit := units[slow[n].Unit]
		moved := time.Duration((slow[n].Value - base[n].Value) * float64(unit))
		if n == "serve.ingest_self_ms" {
			if moved < delay*8/10 || moved > delay*3/2 {
				t.Errorf("%s moved by %v, want about %v", n, moved, delay)
			}
			continue
		}
		if moved > delay/2 || moved < -delay/2 {
			t.Errorf("%s moved by %v although only serve.ingest was slowed", n, moved)
		}
	}
}

// TestRebuildAttribution requires the relearn, transfer and
// materialize times under the traced rebuild to cover the rebuild span
// to within 10%.
func TestRebuildAttribution(t *testing.T) {
	l := mustRun(t, testConfig(t, "read", "bench", true)).layers
	if got := l["bench.rebuild_attrib_pct"].Value; got < 90 || got > 110 {
		t.Errorf("layer times under the rebuild cover %.1f%% of its span, want 90-110%%", got)
	}
}

// TestIngestAttribution requires the serve layer's own time plus the
// re-measured region and pref layers to add up to the ingest span to
// within 10%. It runs at ci scale, where an ingest is long enough for
// the layers to dominate fixed costs, on the read workload, whose
// probes ingest into a private engine.
func TestIngestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a ci-scale router")
	}
	cfg := testConfig(t, "read", "ci", true)
	l := mustRun(t, cfg).layers
	got := l["bench.ingest_attrib_pct"].Value
	t.Logf("layer times under an ingest cover %.1f%% of its span", got)
	if got < 90 || got > 110 {
		t.Errorf("layer times under an ingest cover %.1f%% of its span, want 90-110%%", got)
	}
}

// TestSelfTimes checks the recorder's self-time arithmetic.
func TestSelfTimes(t *testing.T) {
	r := newRecorder(map[string]time.Duration{"outer": 2 * time.Millisecond})
	id, d := r.call("outer", -1, func() {})
	r.child("inner", id, time.Millisecond)
	if d < 2*time.Millisecond {
		t.Fatalf("span %v does not include the injected delay", d)
	}
	self := r.selfTimes("outer")
	if len(self) != 1 || time.Duration(self[0]) != d-time.Millisecond {
		t.Fatalf("self time %v, want %v", self, d-time.Millisecond)
	}
	other := newRecorder(nil)
	other.value("x", 5)
	r.merge(other)
	if got := r.selfTimes("x"); len(got) != 1 || got[0] != 5 {
		t.Fatalf("merged value %v", got)
	}
}
