package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"fgpsim/internal/exp"
	"fgpsim/internal/stats"
)

// pinsTSV holds simulated stats pinned from a known-good commit: every cell
// dyn-cells and simd-mixed can run under any seed, every program of the
// default seed of cold-programs, and both workloads' warm-up operations. Regenerate with -write-pins
// only when a change is meant to alter simulated results.
//
//go:embed pins.tsv
var pinsTSV string

// defaultSeed is the seed whose cold-programs programs are pinned.
const defaultSeed = 1

// pin is the pinned outcome of one operation.
type pin struct {
	cycles, retired, executed, discarded, mispredicts int64
	digest                                            string
}

func pinOf(s *stats.Run) pin {
	return pin{s.Cycles, s.RetiredNodes, s.ExecutedNodes, s.DiscardedNodes, s.Mispredicts, exp.DigestStats(s)}
}

func (p pin) String() string {
	return fmt.Sprintf("%d\t%d\t%d\t%d\t%d\t%s", p.cycles, p.retired, p.executed, p.discarded, p.mispredicts, p.digest)
}

// parsePins reads "namespace<TAB>key<TAB>cycles retired executed discarded
// mispredicts digest" lines; '#' starts a comment line.
func parsePins(r io.Reader) (map[string]pin, error) {
	m := map[string]pin{}
	sc := bufio.NewScanner(r)
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 8 {
			return nil, fmt.Errorf("pins line %d: %d fields, want 8", ln, len(f))
		}
		var n [5]int64
		for i := range n {
			v, err := strconv.ParseInt(f[2+i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("pins line %d: %w", ln, err)
			}
			n[i] = v
		}
		m[f[0]+"\t"+f[1]] = pin{n[0], n[1], n[2], n[3], n[4], f[7]}
	}
	return m, sc.Err()
}

// gate is the correctness check every operation passes through. An
// operation fails when the layer returned an error (exp verifies each
// simulated output against the interpreter reference), when its stats
// differ from a pin, or when a cell already seen in this run comes back
// with different stats.
type gate struct {
	pins map[string]pin
	// pinned lists the namespaces whose operations must all have a pin.
	pinned map[string]bool
	// record, when set, receives every passing operation (pin generation).
	record func(ns, key string, p pin)

	mu        sync.Mutex
	seen      map[string]string // namespace+key -> digest first observed
	attempted int
	failed    int
	reported  int
}

func newGate(seed int64) (*gate, error) {
	pins, err := parsePins(strings.NewReader(pinsTSV))
	if err != nil {
		return nil, err
	}
	g := &gate{pins: pins, seen: map[string]string{},
		pinned: map[string]bool{nsDyn: true, nsDynWarm: true, nsRun: true, nsSweep: true}}
	if seed == defaultSeed {
		g.pinned[nsCold] = true
	}
	return g, nil
}

// Pin namespaces: one per workload, one for the dyn-cells warm-up cells
// (pinned under every seed), and two for simd-mixed because a checkpointed
// sweep cell runs under its own checkpoint cadence.
const (
	nsDyn     = "dyn-cells"
	nsDynWarm = "dyn-warm"
	nsCold    = "cold-programs"
	nsRun     = "simd-run"
	nsSweep   = "simd-sweep"
)

// check records one operation's outcome and reports whether it passed.
func (g *gate) check(ns, key string, s *stats.Run, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if msg := g.verdict(ns, key, s, err); msg != "" {
		g.failed++
		if g.reported < 10 {
			g.reported++
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s %s: %s\n", ns, key, msg)
		}
		return false
	}
	return true
}

// fail records an operation that failed before it produced stats.
func (g *gate) fail(ns, key string, err error) { g.check(ns, key, nil, err) }

func (g *gate) verdict(ns, key string, s *stats.Run, err error) string {
	if err != nil {
		return err.Error()
	}
	if s == nil {
		return "no stats"
	}
	got := pinOf(s)
	k := ns + "\t" + key
	if want, ok := g.pins[k]; ok {
		if got != want {
			return fmt.Sprintf("stats %s, pinned %s", got, want)
		}
	} else if g.pinned[ns] {
		return "no pinned stats for this operation"
	}
	prev, ok := g.seen[k]
	if ok && prev != got.digest {
		return fmt.Sprintf("repeated cell gave digest %s, first run gave %s", got.digest, prev)
	}
	if !ok && g.record != nil {
		g.record(ns, key, got)
	}
	g.seen[k] = got.digest
	return ""
}

func (g *gate) counts() (attempted, failed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed
}
