package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"fgpsim/internal/machine"
	"fgpsim/internal/stats"
)

func TestOpListsDeterministic(t *testing.T) {
	for r := 0; r < 3; r++ {
		if !reflect.DeepEqual(dynRoundCells(7, r), dynRoundCells(7, r)) {
			t.Errorf("dyn-cells: one seed gave two cell lists for round %d", r)
		}
	}
	if reflect.DeepEqual(dynRoundCells(7, 0), dynRoundCells(8, 0)) {
		t.Error("dyn-cells: two seeds gave the same cell list")
	}
	if !reflect.DeepEqual(coldProgramList(7, coldRing), coldProgramList(7, coldRing)) {
		t.Error("cold-programs: one seed gave two program lists")
	}
	if reflect.DeepEqual(coldProgramList(7, coldRing), coldProgramList(8, coldRing)) {
		t.Error("cold-programs: two seeds gave the same program list")
	}
	for r := 0; r < 3; r++ {
		if !reflect.DeepEqual(simdRoundList(7, r), simdRoundList(7, r)) {
			t.Errorf("simd-mixed: one seed gave two request lists for round %d", r)
		}
	}
	if reflect.DeepEqual(simdRoundList(7, 0), simdRoundList(8, 0)) {
		t.Error("simd-mixed: two seeds gave the same request list")
	}
}

// Every round keeps every stratum: each benchmark x discipline x block mode
// runs every issue model 2..8 exactly once. Seven rounds run the whole grid
// once, and the eighth repeats the first.
func TestDynCellsStrata(t *testing.T) {
	if dynLatin != len(machine.MemConfigs) {
		t.Fatalf("%d issue models, %d memory configurations: no Latin square", dynLatin, len(machine.MemConfigs))
	}
	for _, seed := range []int64{defaultSeed, 7} {
		grid := map[string]int{}
		for r := 0; r < dynLatin; r++ {
			strata := map[string]int{}
			for _, c := range dynRoundCells(seed, r) {
				strata[fmt.Sprintf("%d/%s/%s/%d", c.p, c.cfg.Disc, c.cfg.Branch, c.cfg.Issue.ID)]++
				grid[c.key]++
			}
			if len(strata) != 5*2*2*7 {
				t.Fatalf("seed %d round %d: %d benchmark/discipline/mode/issue strata, want 140", seed, r, len(strata))
			}
		}
		if len(grid) != 5*2*2*7*7 {
			t.Errorf("seed %d: seven rounds ran %d distinct cells, want the 980-cell grid", seed, len(grid))
		}
		for k, n := range grid {
			if n != 1 {
				t.Errorf("seed %d: cell %s ran %d times in seven rounds", seed, k, n)
			}
		}
		if !reflect.DeepEqual(dynRoundCells(seed, dynLatin), dynRoundCells(seed, 0)) {
			t.Errorf("seed %d: round %d does not repeat round 0", seed, dynLatin)
		}
	}
}

func testEnv(t *testing.T, seed int64) *env {
	g, err := newGate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: seed, out: t.TempDir(), gate: g, lay: newLayers()}
}

func requirePassed(t *testing.T, e *env, min int) {
	t.Helper()
	attempted, failed := e.gate.counts()
	if failed > 0 || attempted < min {
		t.Fatalf("%d of %d operations failed (want >= %d, none failed)", failed, attempted, min)
	}
}

// A short slice of each workload on the default seed passes the gate:
// every operation matches its pinned stats.
func TestShortSlicePassesGate(t *testing.T) {
	t.Run("dyn-cells", func(t *testing.T) {
		e := testEnv(t, defaultSeed)
		w := newDynCells(defaultSeed)
		defer w.close()
		if err := w.setup(e); err != nil { // runs the warm-up cells
			t.Fatal(err)
		}
		requirePassed(t, e, 10)
	})
	t.Run("cold-programs", func(t *testing.T) {
		e := testEnv(t, defaultSeed)
		w := newColdPrograms(defaultSeed)
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		w.runRound(e, 0)
		requirePassed(t, e, 2*(coldWarm+coldRound))
	})
	// Another seed's programs are unpinned; none may be checked against
	// the default seed's pins.
	t.Run("cold-programs-seed2", func(t *testing.T) {
		e := testEnv(t, 2)
		w := newColdPrograms(2)
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		w.runRound(e, 0)
		requirePassed(t, e, 2*(coldWarm+coldRound))
	})
	t.Run("simd-mixed", func(t *testing.T) {
		e := testEnv(t, defaultSeed)
		w := newSimdMixed(defaultSeed)
		defer w.close()
		if err := w.setup(e); err != nil {
			t.Fatal(err)
		}
		w.runRound(e, 0)
		requirePassed(t, e, simdRoundOps)
	})
}

func TestGateRejectsWrongStats(t *testing.T) {
	s := &stats.Run{Cycles: 10, RetiredNodes: 20}
	g := &gate{pins: map[string]pin{"ns\tk": pinOf(s)}, pinned: map[string]bool{"ns": true}, seen: map[string]string{}}
	if !g.check("ns", "k", s, nil) {
		t.Fatal("pinned stats rejected")
	}
	if g.check("ns", "k", &stats.Run{Cycles: 11, RetiredNodes: 20}, nil) {
		t.Error("stats differing from the pin accepted")
	}
	if g.check("ns", "other", s, nil) {
		t.Error("operation without a pin accepted in a pinned namespace")
	}
	g.pinned["ns"] = false
	g.check("ns", "free", s, nil)
	if g.check("ns", "free", &stats.Run{Cycles: 12}, nil) {
		t.Error("repeated cell with different stats accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	base := tr.epoch
	tr.record("op", 1, 0, -1, base, base.Add(10*time.Millisecond))
	tr.record("layer", 1, 0, 0, base.Add(time.Millisecond), base.Add(4*time.Millisecond))
	tr.record("layer", 1, 0, 0, base.Add(5*time.Millisecond), base.Add(7*time.Millisecond))
	got := map[string]time.Duration{}
	for _, r := range tr.selfTimes() {
		got[r.name] = r.self
	}
	if got["op"] != 5*time.Millisecond || got["layer"] != 5*time.Millisecond {
		t.Errorf("self times %v, want op 5ms, layer 5ms", got)
	}
	path := t.TempDir() + "/trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("trace file: %v, %d events", err, len(doc.TraceEvents))
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric lists must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func namesUnits(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	sort.Strings(out)
	return out
}

// The printed metric names and units match BENCHMARK.json, and so do the
// workload names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var workloadNames []string
	for _, w := range bj.Workloads {
		workloadNames = append(workloadNames, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not have", w.Name)
		}
	}
	if len(workloadNames) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; perfbench has %d workloads", workloadNames, len(workloads))
	}
	for _, c := range []struct {
		traced bool
		defs   []metricDef
		json   []struct{ Name, Unit string }
	}{{false, endToEnd, bj.EndToEnd}, {true, perLayer, bj.PerLayer}} {
		var want []string
		for _, m := range c.json {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		if got := namesUnits(c.defs); !reflect.DeepEqual(got, want) {
			t.Errorf("traced=%v: perfbench metrics %v, BENCHMARK.json %v", c.traced, got, want)
		}
		res, err := run("cold-programs", defaultSeed, 0, c.traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var printed []string
		for name, v := range res.Metrics {
			printed = append(printed, name+" "+v.Unit)
		}
		sort.Strings(printed)
		if !reflect.DeepEqual(printed, want) {
			t.Errorf("traced=%v: printed %v, BENCHMARK.json %v", c.traced, printed, want)
		}
	}
}
