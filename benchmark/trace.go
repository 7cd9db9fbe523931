package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing from the outside: the benchmark wraps each call it makes into a
// layer's public function in a span. Spans stay in memory until the run
// ends and are then written to benchmark/out/trace-<workload>.json. A nil
// *tracer records nothing, which is how the untraced runs share the code.

// span is one timed call. Spans of one request share Req; Parent is the
// ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, req int64, fn func(id int64)) {
	id := t.begin(name, parent, req)
	fn(id)
	t.end(id)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Overlapping children
// (parallel calls) are merged first, so covered time is never counted
// twice and self time is never negative.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, reach := int64(0), s.StartNs
		for _, k := range iv {
			lo, hi := k[0], k[1]
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.EndNs - s.StartNs - covered
	}
	return out
}

// layerRow is one line of the where-the-time-goes table.
type layerRow struct {
	name            string
	calls           int
	totalNs, selfNs int64
}

// byName aggregates spans by name, ordered by self time.
func byName(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.calls++
		r.totalNs += s.EndNs - s.StartNs
		r.selfNs += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfNs > out[j].selfNs })
	return out
}

// layerOf is the part of a span name before the first dot: the module.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums self time per layer.
func selfByLayer(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, r := range byName(spans) {
		out[layerOf(r.name)] += r.selfNs
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(root, workload string) (string, error) {
	path := filepath.Join(outDir(root), "trace-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// printLayerTable prints self time per span name and then per layer.
func printLayerTable(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-28s %9s %14s %14s %12s\n", "span", "calls", "total ms", "self ms", "self ns/call")
	for _, r := range byName(spans) {
		fmt.Fprintf(w, "  %-28s %9d %14.3f %14.3f %12.0f\n", r.name, r.calls,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, float64(r.selfNs)/float64(r.calls))
	}
	layers := selfByLayer(spans)
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(w, "  %-28s %14s\n", "layer", "self ms")
	for _, l := range names {
		fmt.Fprintf(w, "  %-28s %14.3f\n", l, float64(layers[l])/1e6)
	}
}
