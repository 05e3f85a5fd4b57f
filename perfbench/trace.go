package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent indexes the enclosing span (-1 for an operation's root).
type span struct {
	name       string
	op         int64
	lane       int // Chrome trace thread id: the client or driver that made the call
	parent     int
	start, end time.Duration // since the tracer's epoch
	detail     string        // what the call worked on, e.g. a cell key
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, op int64, lane, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span i and returns its duration (0 on a nil tracer).
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	return now - t.spans[i].start
}

// annotate attaches a detail string to span i.
func (t *tracer) annotate(i int, detail string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].detail = detail
}

// record adds an already-measured span (the server-side handler wrapper
// times requests it cannot open spans for in advance).
func (t *tracer) record(name string, op int64, lane, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, lane: lane, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the total duration and the self time: the
// duration minus the part covered by the span's direct children.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		r := rows[s.name]
		if r == nil {
			r = &layerTime{name: s.name}
			rows[s.name] = r
		}
		r.count++
		r.total += s.end - s.start
		r.self += s.end - s.start - child[i]
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// printSelfTimes writes the self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "layer", "calls", "total_ms", "self_ms")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		args := map[string]any{"op": s.op}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		if s.detail != "" {
			args["detail"] = s.detail
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3, Args: args})
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
