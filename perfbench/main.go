// Command perfbench is the repository benchmark. It drives the simulator's
// layers from outside, through their public functions, on one of three
// seeded workloads, checks every operation for correctness, and prints one
// JSON result line: end-to-end metrics from an untraced run, or per-layer
// metrics from a traced one. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupReps = 5

// minRounds is the fewest timed rounds a run makes, whatever --seconds says:
// medians need a few rounds, and a traced run alternates untraced and
// traced rounds to measure its own overhead.
const minRounds = 4

// workload is one benchmark traffic shape. setup may be called several
// times; each call replaces the state the previous one built.
type workload interface {
	setup(e *env) error
	// runRound executes the operations of round r, which the seed fixes.
	// Rounds do the same amount of work, so their rates can be compared and
	// a median taken.
	runRound(e *env, r int) roundResult
	// perLayer fills the workload's per-layer metrics from e.lay.
	perLayer(e *env, m map[string]float64)
	close()
}

// roundResult is what one round did, as the workload counts it.
type roundResult struct {
	ops             int
	cycles, retired int64
	lat             []float64 // per-operation latency samples (ms) for the latency metrics
}

// env is the state one run shares with its workload.
type env struct {
	seed int64
	out  string // build/output directory inside the checkout
	gate *gate
	lay  *layers
	// trace is the run's tracer (nil in an untraced run); tr is the current
	// round's, nil when the round is untraced. Set-up is never traced.
	trace, tr *tracer
	ops       atomic.Int64
}

func (e *env) tracing() bool { return e.tr != nil }

// opID numbers operations across the run; spans of one operation share it.
func (e *env) opID() int64 { return e.ops.Add(1) }

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = map[string]func(seed int64) workload{
	"dyn-cells":     newDynCells,
	"cold-programs": newColdPrograms,
	"simd-mixed":    newSimdMixed,
}

func main() {
	name := flag.String("workload", "", "workload: dyn-cells, cold-programs or simd-mixed")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 20, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces and journals")
	writePins := flag.String("write-pins", "", "compute the pinned stats and write them to this file, then exit")
	flag.Parse()

	if *writePins != "" {
		if err := generatePins(*writePins, *out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, runs its timed rounds, and builds the result.
func run(name string, seed int64, seconds float64, traced bool, out string) (*result, error) {
	mk := workloads[name]
	if mk == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	g, err := newGate(seed)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, out: out, gate: g, lay: newLayers()}
	if traced {
		e.trace = newTracer()
	}
	w := mk(seed)
	defer w.close()

	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		e.lay = newLayers() // set-up layers report the last set-up only
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var rounds []roundStat
	var lat []float64
	round0 := roundResult{}
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		// A traced run runs each round's operations twice, once traced and
		// once not, so the pairs measure what tracing costs. The traced half
		// goes second in even pairs and first in odd ones, so a second pass
		// over the same operations being faster does not bias the overhead.
		content := r
		e.tr = nil
		if traced {
			content = r / 2
			if r%2 != content%2 {
				e.tr = e.trace
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		rr := w.runRound(e, content)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if r == 0 {
			round0 = rr
		}
		if e.tracing() {
			e.lay.add("round.traced", d, int64(rr.ops), 0)
		}
		lat = append(lat, rr.lat...)
		rounds = append(rounds, roundStat{traced: e.tr != nil, ops: rr.ops, cycles: rr.cycles, dur: d,
			alloc: after.TotalAlloc - before.TotalAlloc, gcs: after.NumGC - before.NumGC,
			pause: time.Duration(after.PauseTotalNs - before.PauseTotalNs)})
	}
	e.tr = nil

	attempted, failed := g.counts()
	res := &result{Correct: attempted > 0 && failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}}
	var defs []metricDef
	vals := map[string]float64{}
	if traced {
		defs = perLayer
		for _, d := range perLayer {
			vals[d.name] = 0 // a layer the workload bypasses
		}
		w.perLayer(e, vals)
		tracedLayerMetrics(vals, rounds, round0, len(lat))
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := e.trace.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s trace written to %s\n", name, path)
		e.trace.printSelfTimes(os.Stderr)
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead %.2f%% (traced vs untraced rounds)\n", vals["trace.overhead_pct"])
	} else {
		defs = endToEnd
		endToEndMetrics(vals, rounds, lat, setups, attempted, failed)
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, %d ops, latency percentiles over %d samples\n",
			name, seed, len(rounds), attempted, len(lat))
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, nil
}

// roundStat is one timed round as the harness measured it.
type roundStat struct {
	traced bool
	ops    int
	cycles int64
	dur    time.Duration
	alloc  uint64
	gcs    uint32
	pause  time.Duration
}

// endToEndMetrics computes the untraced run's metrics. Operation rate and
// allocation are medians over rounds. Simulated cycles per second is the
// whole timed phase's cycles over its time: a round's cycle count swings
// with its programs (cold-programs), so a per-round median would track
// which programs a seed drew rather than the simulator's speed.
func endToEndMetrics(m map[string]float64, rounds []roundStat, lat, setups []float64, attempted, failed int) {
	var opsRate, alloc []float64
	var cycles int64
	var total time.Duration
	for _, r := range rounds {
		opsRate = append(opsRate, float64(r.ops)/r.dur.Seconds())
		alloc = append(alloc, float64(r.alloc)/1e6/float64(r.ops))
		cycles += r.cycles
		total += r.dur
	}
	m["ops_per_s"] = median(opsRate)
	m["sim_mcycles_per_s"] = float64(cycles) / total.Seconds() / 1e6
	m["latency_p50_ms"] = quantile(lat, 0.5)
	m["latency_p90_ms"] = quantile(lat, 0.9)
	m["alloc_mb_per_op"] = median(alloc)
	m["setup_s"] = median(setups)
	m["ok_frac"] = float64(attempted-failed) / float64(attempted)
}

// tracedLayerMetrics fills the per-layer metrics every workload shares.
// Rounds come in pairs over the same operations, one traced and one not;
// the tracing overhead is the median over pairs of their time ratio, so
// rounds of different content do not enter one comparison.
func tracedLayerMetrics(m map[string]float64, rounds []roundStat, round0 roundResult, samples int) {
	var ratios []float64
	var ops, gcs int
	var pause time.Duration
	for i := 0; i+1 < len(rounds); i += 2 {
		a, b := rounds[i], rounds[i+1]
		if a.traced {
			a, b = b, a
		}
		ratios = append(ratios, b.dur.Seconds()/a.dur.Seconds())
	}
	for _, r := range rounds {
		if r.traced {
			ops += r.ops
			gcs += int(r.gcs)
			pause += r.pause
		}
	}
	m["trace.overhead_pct"] = (median(ratios) - 1) * 100
	m["runtime.gc_cycles_per_op"] = div(float64(gcs), float64(ops))
	m["runtime.gc_pause_ms"] = div(ms(pause), float64(ops))
	m["core.sim_cycles"] = float64(round0.cycles)
	m["core.retired_nodes"] = float64(round0.retired)
	m["latency.samples"] = float64(samples)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}
