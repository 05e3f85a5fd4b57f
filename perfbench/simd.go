package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/bench"
	"fgpsim/internal/exp"
	"fgpsim/internal/machine"
	"fgpsim/internal/server"
	"fgpsim/internal/stats"
)

// simd-mixed: the daemon in-process behind a real loopback TCP listener,
// driven by simdClients closed-loop clients (each waits for its reply
// before sending again). The server journals with fsync and checkpoints
// sweep cells. A round is simdRoundOps requests in seeded order: short
// /run reads of static cells, and at fixed positions small /sweep writes of
// two dyn4 cells, which the client polls until they settle. A sweep holds
// both limiter units, so a /run can queue behind it.

const (
	simdClients  = 2
	simdRoundOps = 40
	// simdSweepEvery places one sweep per this many requests.
	simdSweepEvery = 20
	// simdCheckpointEvery is the sweep cells' checkpoint cadence in cycles.
	simdCheckpointEvery = 150_000
	// simdPollInterval is how long a client waits between status polls.
	simdPollInterval = 5 * time.Millisecond
	// simdTimeout bounds one HTTP call, and the teardown.
	simdTimeout = 2 * time.Minute
)

// simdOp is one request of the traffic mix.
type simdOp struct {
	sweep bool
	bench string
	cfgs  []server.ConfigSpec // one for /run, two for /sweep
}

// simdBranches are the block modes simd-mixed requests.
var simdBranches = []string{"single", "enlarged"}

// simdCells enumerates the cell universe of one discipline: static for
// /run, dyn4 for /sweep. The pins cover all of it, so every seed's served
// results are checked against pinned digests.
func simdCells(disc string) []simdOp {
	var out []simdOp
	for _, b := range bench.All() {
		for _, im := range machine.IssueModels {
			for _, mc := range machine.MemConfigs {
				for _, br := range simdBranches {
					out = append(out, simdOp{bench: b.Name, cfgs: []server.ConfigSpec{{Disc: disc, Issue: im.ID, Mem: string(mc.ID), Branch: br}}})
				}
			}
		}
	}
	return out
}

// simdRoundList is round r's requests for a seed. The benchmarks rotate so
// every round carries the same mix — each benchmark serves an equal share
// of the /run requests, and the two sweeps take the next two benchmarks in
// turn — while the seed picks every configuration and the order.
func simdRoundList(seed int64, r int) []simdOp {
	rng := rand.New(rand.NewSource(seed*7919 + int64(r)))
	names := benchNames()
	var runs []simdOp
	for i := 0; len(runs) < simdRoundOps-simdRoundOps/simdSweepEvery; i++ {
		runs = append(runs, simdPick(rng, names[i%len(names)], "static"))
	}
	rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	ops := make([]simdOp, 0, simdRoundOps)
	for i, s := 0, 0; i < simdRoundOps; i++ {
		if i%simdSweepEvery != simdSweepEvery/2 {
			ops = append(ops, runs[0])
			runs = runs[1:]
			continue
		}
		b := names[(2*r+s)%len(names)]
		s++
		a, c := simdPick(rng, b, "dyn4"), simdPick(rng, b, "dyn4")
		for c.cfgs[0] == a.cfgs[0] {
			c = simdPick(rng, b, "dyn4")
		}
		ops = append(ops, simdOp{sweep: true, bench: b, cfgs: []server.ConfigSpec{a.cfgs[0], c.cfgs[0]}})
	}
	return ops
}

// simdPick draws one cell of benchmark b from the universe.
func simdPick(rng *rand.Rand, b, disc string) simdOp {
	im := machine.IssueModels[rng.Intn(len(machine.IssueModels))]
	mc := machine.MemConfigs[rng.Intn(len(machine.MemConfigs))]
	br := simdBranches[rng.Intn(len(simdBranches))]
	return simdOp{bench: b, cfgs: []server.ConfigSpec{{Disc: disc, Issue: im.ID, Mem: string(mc.ID), Branch: br}}}
}

// simdConfig resolves a spec of the cell universe and names its cell. The
// specs come from the machine package's own tables, so one that does not
// resolve is a bug in this file.
func simdConfig(bench string, cs server.ConfigSpec) (machine.Config, string) {
	cfg, err := cs.Config()
	if err != nil {
		panic(fmt.Sprintf("perfbench: cell spec %+v: %v", cs, err))
	}
	return cfg, server.KeyString(exp.KeyOf(bench, cfg))
}

func benchNames() []string {
	var names []string
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

type simdMixed struct {
	seed int64
	rep  int

	dir    string
	disk   *timingDisk
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string
	client *http.Client
	tr     *tracer // the run's tracer, for server-side spans
	lay    *layers
}

func newSimdMixed(seed int64) workload { return &simdMixed{seed: seed} }

func (w *simdMixed) setup(e *env) error {
	w.rep++
	w.dir = filepath.Join(e.out, fmt.Sprintf("simd-%d-%d", os.Getpid(), w.rep))
	w.disk = &timingDisk{}
	w.tr, w.lay = e.trace, e.lay
	srv, err := server.New(server.Config{Concurrency: simdClients, JournalDir: w.dir,
		CheckpointEvery: simdCheckpointEvery, Disk: w.disk})
	if err != nil {
		return err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: w.wrap(srv.Handler())}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		// Serve returns http.ErrServerClosed once close shuts it down; a
		// listener failure before that shows up as failed requests.
		_ = w.hs.Serve(ln)
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: simdClients * 2}}

	// Warm the server's prep cache with one /run per benchmark, and the
	// sweep path with one sweep. The warm-up cells are fixed, so set-up does
	// the same work under every seed.
	for _, name := range benchNames() {
		w.do(e, simdOp{bench: name, cfgs: []server.ConfigSpec{{Disc: "static", Issue: 2, Mem: "A", Branch: "single"}}}, -1, 0)
	}
	w.do(e, simdOp{sweep: true, bench: "sort", cfgs: []server.ConfigSpec{
		{Disc: "dyn4", Issue: 2, Mem: "A", Branch: "single"}, {Disc: "dyn4", Issue: 2, Mem: "A", Branch: "enlarged"}}}, -1, 0)
	return nil
}

// wrap times each /run request inside the server. The client passes its
// span in headers, so the handler span nests under the client's round trip.
func (w *simdMixed) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		spanHdr := r.Header.Get("X-Perfbench-Span")
		if r.URL.Path != "/run" || spanHdr == "" {
			h.ServeHTTP(rw, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		t1 := time.Now()
		// The benchmark's own client sets these headers; a value that does
		// not parse only misplaces the span in the trace file.
		parent, _ := strconv.Atoi(spanHdr)
		op, _ := strconv.ParseInt(r.Header.Get("X-Perfbench-Op"), 10, 64)
		lane, _ := strconv.Atoi(r.Header.Get("X-Perfbench-Lane"))
		w.tr.record("server.run.handler", op, lane, parent, t0, t1)
		w.lay.add("server.run.handler", t1.Sub(t0), 0, 0)
	})
}

func (w *simdMixed) runRound(e *env, r int) roundResult {
	ops := simdRoundList(e.seed, r)
	w.disk.on.Store(e.tracing())
	defer w.disk.on.Store(false)
	var next atomic.Int64
	var mu sync.Mutex
	var rr roundResult
	var wg sync.WaitGroup
	for c := 0; c < simdClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				res := w.do(e, ops[i], e.opID(), lane)
				mu.Lock()
				rr.ops++
				rr.cycles += res.cycles
				rr.retired += res.retired
				if !ops[i].sweep {
					rr.lat = append(rr.lat, ms(res.lat))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return rr
}

type simdResult struct {
	cycles, retired int64
	lat             time.Duration
}

// do performs one request (a /run, or a /sweep plus its polls) and checks
// what the server returned.
func (w *simdMixed) do(e *env, op simdOp, id int64, lane int) simdResult {
	if op.sweep {
		return w.sweep(e, op, id, lane)
	}
	return w.run(e, op, id, lane)
}

func (w *simdMixed) run(e *env, op simdOp, id int64, lane int) simdResult {
	root := e.tr.begin("simd-mixed.run", id, lane, -1)
	defer e.tr.end(root)
	_, key := simdConfig(op.bench, op.cfgs[0])
	body, _ := json.Marshal(server.RunRequest{Bench: op.bench, Config: op.cfgs[0]}) // strings and ints only: cannot fail
	sp := e.tr.begin("client.run.rtt", id, lane, root)
	hdr := http.Header{}
	if e.tracing() {
		hdr.Set("X-Perfbench-Span", strconv.Itoa(sp))
		hdr.Set("X-Perfbench-Op", strconv.FormatInt(id, 10))
		hdr.Set("X-Perfbench-Lane", strconv.Itoa(lane))
	}
	t0 := time.Now()
	var resp struct {
		Key       string     `json:"key"`
		ElapsedUs int64      `json:"elapsed_us"`
		Stats     *stats.Run `json:"stats"`
	}
	err := w.call(http.MethodPost, "/run", hdr, body, http.StatusOK, &resp)
	lat := time.Since(t0)
	e.tr.end(sp)
	if err == nil && resp.Key != key {
		err = fmt.Errorf("served key %q", resp.Key)
	}
	if !e.gate.check(nsRun, key, resp.Stats, err) {
		return simdResult{lat: lat}
	}
	if e.tracing() {
		e.lay.add("client.run.rtt", lat, 0, 0)
		e.lay.add("server.run.sim", time.Duration(resp.ElapsedUs)*time.Microsecond, resp.Stats.Cycles, 0)
	}
	return simdResult{resp.Stats.Cycles, resp.Stats.RetiredNodes, lat}
}

// sweepStatus is the JSON shape of GET /sweep/{id}.
type sweepStatus struct {
	State   string                `json:"state"`
	Failed  []string              `json:"failed"`
	Error   string                `json:"error"`
	Results map[string]*stats.Run `json:"results"`
}

func (w *simdMixed) sweep(e *env, op simdOp, id int64, lane int) simdResult {
	root := e.tr.begin("simd-mixed.sweep", id, lane, -1)
	defer e.tr.end(root)
	t0 := time.Now()
	body, _ := json.Marshal(server.SweepSpec{Benches: []string{op.bench}, Configs: op.cfgs}) // strings and ints only: cannot fail
	var acc struct {
		ID string `json:"id"`
	}
	sp := e.tr.begin("client.sweep.submit", id, lane, root)
	err := w.call(http.MethodPost, "/sweep", nil, body, http.StatusAccepted, &acc)
	e.tr.end(sp)
	keys := make([]string, len(op.cfgs))
	for i, cs := range op.cfgs {
		_, keys[i] = simdConfig(op.bench, cs)
	}
	if err != nil {
		e.gate.fail(nsSweep, keys[0], err)
		return simdResult{lat: time.Since(t0)}
	}
	sp = e.tr.begin("server.sweep.settle", id, lane, root)
	t1 := time.Now()
	var st sweepStatus
	polls := 0
	for {
		polls++
		st = sweepStatus{}
		if err = w.call(http.MethodGet, "/sweep/"+acc.ID, nil, nil, http.StatusOK, &st); err != nil || st.State != "queued" && st.State != "running" {
			break
		}
		time.Sleep(simdPollInterval)
	}
	settle := time.Since(t1)
	e.tr.end(sp)
	if err == nil && (st.State != "done" || len(st.Failed) > 0) {
		err = fmt.Errorf("sweep %s ended %s %q %v", acc.ID, st.State, st.Error, st.Failed)
	}
	var res simdResult
	for _, k := range keys {
		s := st.Results[k]
		if err == nil && s == nil {
			e.gate.fail(nsSweep, k, errors.New("sweep result missing"))
			continue
		}
		if e.gate.check(nsSweep, k, s, err) {
			res.cycles += s.Cycles
			res.retired += s.RetiredNodes
		}
	}
	if e.tracing() {
		e.lay.add("server.sweep.settle", settle, int64(polls), 0)
		e.lay.add("server.sweep.cells", 0, int64(len(keys)), 0)
	}
	res.lat = time.Since(t0)
	return res
}

// call sends one request and decodes a JSON reply with the wanted status.
func (w *simdMixed) call(method, path string, hdr http.Header, body []byte, want int, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), simdTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (w *simdMixed) perLayer(e *env, m map[string]float64) {
	rtt, handler, sim := e.lay.get("client.run.rtt"), e.lay.get("server.run.handler"), e.lay.get("server.run.sim")
	m["client.run.rtt_ms"] = rtt.meanMs()
	m["server.run.handler_ms"] = handler.meanMs()
	m["server.run.sim_ms"] = sim.meanMs()
	m["server.run.queue_ms"] = handler.meanMs() - sim.meanMs()
	m["client.run.transport_ms"] = rtt.meanMs() - handler.meanMs()
	m["core.static.ns_per_cycle"] = sim.nsPerCycle()
	settle := e.lay.get("server.sweep.settle")
	m["server.sweep.settle_ms"] = settle.meanMs()
	m["server.sweep.polls"] = div(float64(settle.cycles), float64(settle.n))
	d := w.disk
	d.mu.Lock()
	defer d.mu.Unlock()
	m["exp.journal.fsync_ms"] = div(ms(d.journalSync), float64(d.journalSyncs))
	m["exp.journal.fsyncs_per_cell"] = div(float64(d.journalSyncs), float64(e.lay.get("server.sweep.cells").cycles))
	m["snapshot.bytes_per_checkpoint"] = div(float64(d.snapBytes), float64(d.snapFiles))
	m["snapshot.write_ms"] = div(ms(d.snapTime), float64(d.snapFiles))
}

// close stops the HTTP server and the daemon, waits for both, and removes
// the journal directory.
func (w *simdMixed) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), simdTimeout)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-w.served
	if err := w.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: server drain:", err)
	}
	w.client.CloseIdleConnections()
	if err := os.RemoveAll(w.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	w.srv = nil
}
