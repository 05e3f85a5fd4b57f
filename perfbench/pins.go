package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
)

// generatePins runs every pinned operation locally, outside the server,
// and writes pins.tsv: the dyn-cells grid (the default seed's first seven
// rounds), the default seed's cold-programs ring plus both workloads' warm-up operations through the workloads' own
// code, then the whole simd-mixed cell universe (/run cells plain, sweep
// cells under the server's checkpoint cadence) through exp directly.
func generatePins(path, out string) error {
	lines := []string{"# namespace\tkey\tcycles\tretired\texecuted\tdiscarded\tmispredicts\tdigest"}
	add := func(ns, key string, p pin) { lines = append(lines, ns+"\t"+key+"\t"+p.String()) }
	g := &gate{pins: map[string]pin{}, pinned: map[string]bool{}, seen: map[string]string{}, record: add}
	e := &env{seed: defaultSeed, gate: g, lay: newLayers()}

	dc := newDynCells(defaultSeed).(*dynCells)
	var err error
	if dc.prepared, err = prepareDyn(e); err != nil {
		return err
	}
	for r := 0; r < dynLatin; r++ {
		for _, c := range dynRoundCells(defaultSeed, r) {
			dc.runCell(e, nsDyn, c, 0)
		}
	}
	for _, c := range dynWarmCells() {
		dc.runCell(e, nsDynWarm, c, 0)
	}
	cp := &coldPrograms{}
	for _, prog := range append(coldProgramList(defaultSeed, coldRing), coldProgramList(coldWarmSeed, coldWarm)...) {
		cp.runOp(e, prog, 0)
	}
	if _, failed := g.counts(); failed > 0 {
		return fmt.Errorf("%d operations failed while pinning", failed)
	}
	if err := simdPins(add, out); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// simdPins pins every cell simd-mixed can request.
func simdPins(add func(ns, key string, p pin), out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "pins-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prepared := map[string]*exp.Prepared{}
	for _, b := range bench.All() {
		p, err := exp.Prepare(b, enlarge.DefaultOptions())
		if err != nil {
			return err
		}
		prepared[b.Name] = p
	}
	for _, op := range simdCells("static") {
		cfg, key := simdConfig(op.bench, op.cfgs[0])
		s, err := prepared[op.bench].Run(cfg)
		if err != nil {
			return err
		}
		add(nsRun, key, pinOf(s))
	}
	for _, op := range simdCells("dyn4") {
		cfg, key := simdConfig(op.bench, op.cfgs[0])
		res, err := exp.GridContext(context.Background(), []*exp.Prepared{prepared[op.bench]}, []machine.Config{cfg},
			exp.GridOptions{Workers: 1, CheckpointEvery: simdCheckpointEvery, SnapshotDir: dir})
		if err != nil {
			return err
		}
		add(nsSweep, key, pinOf(res.Get(exp.KeyOf(op.bench, cfg))))
	}
	return nil
}
