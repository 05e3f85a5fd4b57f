package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// metricDef names one printed metric and its unit. The lists must match
// BENCHMARK.json at the repository root (perfbench_test.go checks it).
type metricDef struct{ name, unit string }

// endToEnd is printed by untraced runs.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
	{"ok_frac", "ratio"},
}

// perLayer is printed by traced runs. A layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"core.dyn.ns_per_cycle.sort", "ns"},
	{"core.dyn.ns_per_cycle.grep", "ns"},
	{"core.dyn.ns_per_cycle.diff", "ns"},
	{"core.dyn.ns_per_cycle.cpp", "ns"},
	{"core.dyn.ns_per_cycle.compress", "ns"},
	{"core.dyn.alloc_mb_per_run", "MB"},
	{"core.dyn.share", "ratio"},
	{"exp.prepare_ms", "ms"},
	{"minic.compile_ms", "ms"},
	{"interp.profile_ms", "ms"},
	{"enlarge.build_ms", "ms"},
	{"interp.reference_ms", "ms"},
	{"loader.load_ms", "ms"},
	{"core.static.run_ms", "ms"},
	{"core.static.ns_per_cycle", "ns"},
	{"interp.alloc_mb_per_run", "MB"},
	{"core.static.alloc_mb_per_run", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"client.run.rtt_ms", "ms"},
	{"server.run.handler_ms", "ms"},
	{"server.run.sim_ms", "ms"},
	{"server.run.queue_ms", "ms"},
	{"client.run.transport_ms", "ms"},
	{"server.sweep.settle_ms", "ms"},
	{"server.sweep.polls", "count"},
	{"exp.journal.fsync_ms", "ms"},
	{"exp.journal.fsyncs_per_cell", "count"},
	{"snapshot.bytes_per_checkpoint", "bytes"},
	{"snapshot.write_ms", "ms"},
	{"core.sim_cycles", "count"},
	{"core.retired_nodes", "count"},
	{"latency.samples", "count"},
	{"process.max_rss_mb", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// acc accumulates one layer's calls during traced rounds.
type acc struct {
	n      int64
	dur    time.Duration
	cycles int64 // simulated cycles (or another count) attributed to the calls
	bytes  int64 // heap bytes allocated (or written) by the calls
}

// layers is the per-layer accumulator table of one run.
type layers struct {
	mu sync.Mutex
	m  map[string]*acc
}

func newLayers() *layers { return &layers{m: map[string]*acc{}} }

func (l *layers) add(name string, dur time.Duration, cycles, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.m[name]
	if a == nil {
		a = &acc{}
		l.m[name] = a
	}
	a.n++
	a.dur += dur
	a.cycles += cycles
	a.bytes += bytes
}

func (l *layers) get(name string) acc {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a := l.m[name]; a != nil {
		return *a
	}
	return acc{}
}

// meanMs is the mean call duration in milliseconds (0 without calls).
func (a acc) meanMs() float64 { return div(ms(a.dur), float64(a.n)) }

// nsPerCycle is host nanoseconds per attributed cycle.
func (a acc) nsPerCycle() float64 { return div(float64(a.dur.Nanoseconds()), float64(a.cycles)) }

// mbPerCall is heap megabytes allocated per call.
func (a acc) mbPerCall() float64 { return div(float64(a.bytes)/1e6, float64(a.n)) }

// div is a/b, or 0 when b is 0 (a layer the workload did not reach).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolated p-quantile of xs (NaN when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
