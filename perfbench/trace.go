package main

import (
	"math"
	"sort"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. parent indexes the enclosing span in the same recorder, or
// is -1 for a root. Spans synthesized from a duration the program
// reports (IngestStats.Elapsed, core.Stats phase times) are placed
// inside their parent so that the parent's self time excludes them.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps the spans of one goroutine in memory; fork gives each
// client goroutine its own and merge folds them back after the clients
// have stopped, so recording takes no lock. A nil *recorder records
// nothing: the untraced run passes nil everywhere.
type recorder struct {
	epoch time.Time
	spans []span
	// delay is added inside the named layer's span by call. Only the
	// self-test sets it, to show that a slower layer shows up in
	// exactly that layer's self time.
	delay map[string]time.Duration
}

func newRecorder(delay map[string]time.Duration) *recorder {
	return &recorder{epoch: time.Now(), delay: delay}
}

func (r *recorder) fork() *recorder {
	if r == nil {
		return nil
	}
	return &recorder{epoch: r.epoch, delay: r.delay}
}

func (r *recorder) merge(o *recorder) {
	if r == nil || o == nil {
		return
	}
	off := len(r.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// call runs fn inside a span named name and returns the span's index
// (-1 when r is nil) and its duration.
func (r *recorder) call(name string, parent int, fn func()) (int, time.Duration) {
	if r == nil {
		t0 := time.Now()
		fn()
		return -1, time.Since(t0)
	}
	t0 := time.Now()
	if d := r.delay[name]; d > 0 {
		time.Sleep(d)
	}
	fn()
	t1 := time.Now()
	r.spans = append(r.spans, span{name: name, parent: parent, start: t0.Sub(r.epoch), end: t1.Sub(r.epoch)})
	return len(r.spans) - 1, t1.Sub(t0)
}

// child records a span of duration d that the program measured inside
// the parent span (for example IngestStats.Elapsed inside the span
// around IngestMatched). It is placed at the parent's start.
func (r *recorder) child(name string, parent int, d time.Duration) {
	if r == nil || parent < 0 {
		return
	}
	s := r.spans[parent].start
	r.spans = append(r.spans, span{name: name, parent: parent, start: s, end: s + d})
}

// value records a duration the program reports on its own, outside any
// span of the benchmark (Stats().SwapLag after an ingest).
func (r *recorder) value(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{name: name, parent: -1, end: d})
}

// selfTimes returns, for every span named name, its duration minus the
// durations of its direct children.
func (r *recorder) selfTimes(name string) []float64 {
	if r == nil {
		return nil
	}
	childSum := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start-childSum[i]))
		}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of xs, or 0 for an
// empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// selfQuantile returns the q-quantile of name's self times in unit.
func (r *recorder) selfQuantile(name string, unit time.Duration, q float64) float64 {
	return quantile(scaled(r.selfTimes(name), unit), q)
}

// scaled converts nanosecond samples to the given unit.
func scaled(xs []float64, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / float64(unit)
	}
	return out
}
