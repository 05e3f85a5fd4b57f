package main

import (
	"fmt"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/branch"
	"fgpsim/internal/difftest"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/machine"
	"fgpsim/internal/server"
	"fgpsim/internal/stats"
)

// cold-programs: the front end plus the static engine on programs the
// process has not prepared before. Each operation takes one seeded program
// from difftest.Generate (rotating over difftest.SweepProfiles) with
// difftest.GenInput inputs, prepares it the way exp.Prepare does — compile,
// profiling run, enlargement, reference run, each timed on its own — and
// runs two static configurations, loading each image cold. No dynamic
// scheduler runs.

const (
	// coldRing is how many distinct programs a seed defines; operation i
	// uses program i mod coldRing. Nothing is cached across operations, so
	// a program that comes round again is as cold as the first time, and
	// its repeat must reproduce its stats exactly.
	coldRing = 400
	// coldRound is the number of programs per round: four of each profile.
	coldRound = 20
	// coldWarm is how many programs set-up runs once. They come from a
	// fixed seed (coldWarmSeed), so set-up does the same work under every
	// workload seed.
	coldWarm     = coldRound
	coldWarmSeed = 0
	// maxNodes bounds the interpreter runs, as exp.Prepare does.
	maxNodes = 200_000_000
)

// coldConfigs are the two static configurations each program runs: the
// widest machine with enlarged blocks and a narrow one with single blocks.
var coldConfigs = []machine.Config{
	{Disc: machine.Static, Issue: machine.IssueModels[7], Mem: machine.MemConfigs[0], Branch: machine.EnlargedBB},
	{Disc: machine.Static, Issue: machine.IssueModels[1], Mem: machine.MemConfigs[0], Branch: machine.SingleBB},
}

type coldProgram struct {
	name              string
	src               string
	profileIn, measIn []byte
}

type coldPrograms struct {
	seed        int64
	progs, warm []coldProgram
}

func newColdPrograms(seed int64) workload { return &coldPrograms{seed: seed} }

// coldProgramList is the first n programs, with inputs, of a seed's ring.
func coldProgramList(seed int64, n int) []coldProgram {
	profiles := difftest.SweepProfiles()
	progs := make([]coldProgram, n)
	for i := range progs {
		ps := seed*1_000_003 + int64(i)
		n := int64(180)
		if ps >= 0 {
			n += ps % 120
		}
		progs[i] = coldProgram{
			name:      fmt.Sprintf("gen%d", ps),
			src:       difftest.Generate(ps, profiles[i%len(profiles)]),
			profileIn: difftest.GenInput(2*ps, int(n)),
			measIn:    difftest.GenInput(2*ps+1, int(n)),
		}
	}
	return progs
}

func (w *coldPrograms) setup(e *env) error {
	w.progs = coldProgramList(w.seed, coldRing)
	w.warm = coldProgramList(coldWarmSeed, coldWarm)
	for _, cp := range w.warm {
		w.runOp(e, cp, -1)
	}
	return nil
}

// timed runs f as one span of the given layer and, in traced rounds, adds
// its duration and heap allocation to the layer's accumulator.
func timed(e *env, name string, op int64, parent int, f func() int64) {
	sp := e.tr.begin(name, op, 0, parent)
	var a0 uint64
	if e.tracing() {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	cycles := f()
	d := time.Since(t0)
	e.tr.end(sp)
	if e.tracing() {
		e.lay.add(name, d, cycles, int64(heapAllocs()-a0))
	}
}

// runOp prepares one program and runs both static configurations. It
// returns the simulated cycles and retired nodes of the runs that passed.
func (w *coldPrograms) runOp(e *env, cp coldProgram, op int64) (cycles, retired int64) {
	root := e.tr.begin("cold-programs.program", op, 0, -1)
	defer e.tr.end(root)

	p, err := w.prepare(e, cp, op, root)
	if err != nil {
		e.gate.fail(nsCold, cp.name, err)
		return 0, 0
	}
	for _, cfg := range coldConfigs {
		// The program's name carries its generator seed, so keys of
		// different workload seeds never collide.
		key := server.KeyString(exp.KeyOf(cp.name, cfg))
		var lerr error
		timed(e, "loader.load", op, root, func() int64 {
			_, _, lerr = p.ResolveImage(cfg)
			return 0
		})
		if lerr != nil {
			e.gate.fail(nsCold, key, lerr)
			continue
		}
		var s *stats.Run
		var rerr error
		timed(e, "core.static.run", op, root, func() int64 {
			s, rerr = p.Run(cfg)
			if rerr != nil {
				return 0
			}
			return s.Cycles
		})
		if e.gate.check(nsCold, key, s, rerr) {
			cycles += s.Cycles
			retired += s.RetiredNodes
		}
	}
	return cycles, retired
}

// prepare is exp.Prepare's two-input methodology with each layer call
// timed on its own.
func (w *coldPrograms) prepare(e *env, cp coldProgram, op int64, root int) (*exp.Prepared, error) {
	sp := e.tr.begin("exp.prepare", op, 0, root)
	t0 := time.Now()
	defer func() {
		e.tr.end(sp)
		if e.tracing() {
			e.lay.add("exp.prepare", time.Since(t0), 0, 0)
		}
	}()
	b := &bench.Benchmark{Name: cp.name, Source: cp.src, Inputs: func(set int) ([]byte, []byte) {
		if set == 1 {
			return cp.profileIn, nil
		}
		return cp.measIn, nil
	}}
	var err error
	p := &exp.Prepared{Bench: b, In0: cp.measIn}
	timed(e, "minic.compile", op, sp, func() int64 {
		p.Prog, err = b.Program()
		return 0
	})
	if err != nil {
		return nil, err
	}
	p.Profile = interp.NewProfile()
	timed(e, "interp.profile", op, sp, func() int64 {
		_, err = interp.Run(p.Prog, cp.profileIn, nil, interp.Options{Profile: p.Profile, MaxNodes: maxNodes})
		return 0
	})
	if err != nil {
		return nil, fmt.Errorf("profile run: %w", err)
	}
	timed(e, "enlarge.build", op, sp, func() int64 {
		p.EF = enlarge.Build(p.Prog, p.Profile, enlarge.DefaultOptions())
		p.Hints = branch.HintsFromProfile(p.Profile.Taken, p.Profile.NotTaken)
		return 0
	})
	var ref *interp.Result
	timed(e, "interp.reference", op, sp, func() int64 {
		ref, err = interp.Run(p.Prog, cp.measIn, nil, interp.Options{RecordTrace: true, MaxNodes: maxNodes})
		return 0
	})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	p.Trace, p.RefOutput, p.RefNodes = ref.Trace, ref.Output, ref.RetiredNodes
	return p, nil
}

func (w *coldPrograms) runRound(e *env, r int) roundResult {
	var rr roundResult
	for k := 0; k < coldRound; k++ {
		cp := w.progs[(r*coldRound+k)%coldRing]
		t0 := time.Now()
		c, n := w.runOp(e, cp, e.opID())
		rr.lat = append(rr.lat, ms(time.Since(t0)))
		rr.ops++
		rr.cycles += c
		rr.retired += n
	}
	return rr
}

func (w *coldPrograms) perLayer(e *env, m map[string]float64) {
	for _, name := range []string{"exp.prepare", "minic.compile", "interp.profile", "enlarge.build", "interp.reference", "loader.load", "core.static.run"} {
		m[name+"_ms"] = e.lay.get(name).meanMs()
	}
	run := e.lay.get("core.static.run")
	m["core.static.ns_per_cycle"] = run.nsPerCycle()
	m["core.static.alloc_mb_per_run"] = run.mbPerCall()
	prof, ref := e.lay.get("interp.profile"), e.lay.get("interp.reference")
	m["interp.alloc_mb_per_run"] = div(float64(prof.bytes+ref.bytes)/1e6, float64(prof.n+ref.n))
}

func (w *coldPrograms) close() {}
