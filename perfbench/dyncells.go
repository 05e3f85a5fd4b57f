package main

import (
	"bytes"
	"math/rand"
	"runtime/metrics"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/server"
	"fgpsim/internal/stats"
)

// dyn-cells: one driver goroutine runs stratified grid cells through
// exp.Prepared.Run on warm images. The strata are every benchmark x
// {dyn4, dyn256} x {single, enlarged} x {narrow issue 2-4, wide issue 5-8};
// a round runs every issue model of each stratum once, with the memory
// configuration of each cell picked by the seed, so every round does nearly
// the same work. Seven consecutive rounds form a Latin square over issue
// models and memory configurations, so they run the whole grid once under
// every seed, and round r+7 repeats round r. Preparation and image loading
// happen in set-up.

// dynInputLines caps each benchmark's measurement input at this many lines
// (both streams), so one round of 140 cells takes a few seconds and a run
// holds several rounds. The per-cycle cost that the dynamic scheduler pays
// does not depend on input length; diff's LCS table is quadratic in it.
var dynInputLines = map[string]int{"sort": 35, "grep": 60, "diff": 17, "cpp": 32, "compress": 15}

type dynCell struct {
	p   int // index into prepared
	cfg machine.Config
	key string
}

type dynCells struct {
	seed     int64
	prepared []*exp.Prepared
}

func newDynCells(seed int64) workload { return &dynCells{seed: seed} }

// scaledBench is b with its measurement inputs cut to the first n lines.
// The profiling inputs (set 1) are cut the same way, so the enlargement
// file matches the program's measured behaviour as in the paper.
func scaledBench(b *bench.Benchmark, n int) *bench.Benchmark {
	return &bench.Benchmark{Name: b.Name, Source: b.Source, Inputs: func(set int) ([]byte, []byte) {
		in0, in1 := b.Inputs(set)
		return headLines(in0, n), headLines(in1, n)
	}}
}

// headLines returns the first n lines of b (nil stays nil).
func headLines(b []byte, n int) []byte {
	if b == nil {
		return nil
	}
	i := 0
	for k := 0; k < n && i < len(b); k++ {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return b
		}
		i += j + 1
	}
	return b[:i]
}

// dynIssues are the issue models of the strata: 2-4 narrow, 5-8 wide.
var dynIssues = []int{2, 3, 4, 5, 6, 7, 8}

// dynLatin is the length of the rounds' cycle: as many rounds as there are
// issue models, and memory configurations (perfbench_test.go checks that
// the two counts agree).
var dynLatin = len(dynIssues)

// dynRoundCells is round r of a seed: 5 benchmarks x 2 disciplines x 2
// block modes x 7 issue models, 140 cells in a seeded order. In each group
// the seed draws a permutation pairing the issue models with the seven
// memory configurations, and round r shifts it by r, so rounds r..r+6 pair
// every issue model with every memory configuration once.
func dynRoundCells(seed int64, r int) []dynCell {
	r %= dynLatin
	rng := rand.New(rand.NewSource(seed))
	var cells []dynCell
	for bi, b := range bench.All() {
		for _, d := range []machine.Discipline{machine.Dyn4, machine.Dyn256} {
			for _, br := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
				mems := rng.Perm(len(machine.MemConfigs))
				for k, issue := range dynIssues {
					im, _ := machine.IssueModelByID(issue) // 2..8 all exist
					mem := machine.MemConfigs[(mems[k]+r)%len(machine.MemConfigs)]
					cfg := machine.Config{Disc: d, Issue: im, Mem: mem, Branch: br}
					cells = append(cells, dynCell{p: bi, cfg: cfg, key: server.KeyString(exp.KeyOf(b.Name, cfg))})
				}
			}
		}
	}
	order := rand.New(rand.NewSource(seed*7919 + int64(r)))
	order.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// prepareDyn prepares the scaled benchmarks and loads both images of each
// (dynamic images differ only by block mode), timing each call; set-up is
// untraced, so these are the set-up layer numbers a traced run reports.
func prepareDyn(e *env) ([]*exp.Prepared, error) {
	var out []*exp.Prepared
	for _, b := range bench.All() {
		t0 := time.Now()
		p, err := exp.Prepare(scaledBench(b, dynInputLines[b.Name]), enlarge.DefaultOptions())
		e.lay.add("exp.prepare", time.Since(t0), 0, 0)
		if err != nil {
			return nil, err
		}
		for _, br := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
			t0 := time.Now()
			_, _, err := p.ResolveImage(machine.Config{Disc: machine.Dyn4, Issue: machine.IssueModels[1], Mem: machine.MemConfigs[0], Branch: br})
			e.lay.add("loader.load", time.Since(t0), 0, 0)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, p)
	}
	return out, nil
}

func (w *dynCells) setup(e *env) error {
	p, err := prepareDyn(e)
	if err != nil {
		return err
	}
	w.prepared = p
	for _, c := range dynWarmCells() {
		w.runCell(e, nsDynWarm, c, -1)
	}
	return nil
}

// dynWarmCells are one dyn4 2A/mem A cell per benchmark and block mode: set-up
// runs them once so the first timed round does not pay for lazily built
// engine state. They are cheap and fixed, so set-up does the same work under
// every seed.
func dynWarmCells() []dynCell {
	var out []dynCell
	for bi, b := range bench.All() {
		for _, br := range []machine.BranchMode{machine.SingleBB, machine.EnlargedBB} {
			cfg := machine.Config{Disc: machine.Dyn4, Issue: machine.IssueModels[1], Mem: machine.MemConfigs[0], Branch: br}
			out = append(out, dynCell{p: bi, cfg: cfg, key: server.KeyString(exp.KeyOf(b.Name, cfg))})
		}
	}
	return out
}

// runCell runs one cell through the correctness gate, under pin namespace
// ns, and returns its stats (nil when it failed) and host latency.
func (w *dynCells) runCell(e *env, ns string, c dynCell, op int64) (*stats.Run, time.Duration) {
	root := e.tr.begin("dyn-cells.cell", op, 0, -1)
	e.tr.annotate(root, c.key)
	sp := e.tr.begin("exp.run", op, 0, root)
	var a0 uint64
	if e.tracing() {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	s, err := w.prepared[c.p].Run(c.cfg)
	d := time.Since(t0)
	e.tr.end(sp)
	if e.tracing() && err == nil {
		e.lay.add("core.dyn."+w.prepared[c.p].Bench.Name, d, s.Cycles, int64(heapAllocs()-a0))
	}
	ok := e.gate.check(ns, c.key, s, err)
	e.tr.end(root)
	if !ok {
		return nil, d
	}
	return s, d
}

func (w *dynCells) runRound(e *env, r int) roundResult {
	var rr roundResult
	for _, c := range dynRoundCells(w.seed, r) {
		s, d := w.runCell(e, nsDyn, c, e.opID())
		rr.ops++
		rr.lat = append(rr.lat, ms(d))
		if s != nil {
			rr.cycles += s.Cycles
			rr.retired += s.RetiredNodes
		}
	}
	return rr
}

func (w *dynCells) perLayer(e *env, m map[string]float64) {
	var all acc
	for _, b := range bench.All() {
		a := e.lay.get("core.dyn." + b.Name)
		m["core.dyn.ns_per_cycle."+b.Name] = a.nsPerCycle()
		all.n += a.n
		all.dur += a.dur
		all.bytes += a.bytes
	}
	m["core.dyn.alloc_mb_per_run"] = all.mbPerCall()
	m["core.dyn.share"] = div(all.dur.Seconds(), e.lay.get("round.traced").dur.Seconds())
	m["exp.prepare_ms"] = e.lay.get("exp.prepare").meanMs()
	m["loader.load_ms"] = e.lay.get("loader.load").meanMs()
}

func (w *dynCells) close() { w.prepared = nil }

// heapAllocs is the process's cumulative heap allocation in bytes. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket single
// layer calls in traced rounds.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
