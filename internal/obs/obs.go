// Package obs is Trinity's dependency-free observability layer: striped
// atomic counters, gauges, fixed-bucket lock-free histograms, and
// lightweight phase spans, organized in a registry of named scopes.
//
// The paper's evaluation (§7) is built entirely from measured behaviour —
// message packing ratios, superstep latency, trunk utilization, failover
// timing — so every layer of this reproduction registers its hot-path
// counters here. Snapshots are deterministic (names sorted) and exported
// two ways: an expvar-style JSON endpoint in trinityd and a text dump in
// trinity-bench, so EXPERIMENTS tables can cite real counter names.
//
// Design constraints, in order: (1) recording on a hot path must cost a
// few atomic operations at most — no locks, no allocation, no string
// formatting; (2) no dependencies beyond the standard library; (3)
// snapshotting may be slow, recording never.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry holds named metrics. Each simulated cloud owns one registry so
// tests stay isolated; processes that want a global view (trinityd,
// trinity-bench) pass Default() everywhere.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Scope returns a handle that registers metrics under "prefix." names.
func (r *Registry) Scope(prefix string) *Scope {
	return &Scope{r: r, prefix: prefix}
}

// Scope is a named namespace within a registry. Metric constructors are
// get-or-create: asking twice for the same name returns the same metric,
// so independently constructed components share cumulative counters.
type Scope struct {
	r      *Registry
	prefix string
}

// Counter returns the counter named prefix.name, creating it on first use.
func (s *Scope) Counter(name string) *Counter {
	full := s.full(name)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	c, ok := s.r.counters[full]
	if !ok {
		c = &Counter{}
		s.r.counters[full] = c
	}
	return c
}

// Gauge returns the gauge named prefix.name, creating it on first use.
func (s *Scope) Gauge(name string) *Gauge {
	full := s.full(name)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	g, ok := s.r.gauges[full]
	if !ok {
		g = &Gauge{}
		s.r.gauges[full] = g
	}
	return g
}

// Histogram returns the histogram named prefix.name, creating it on first
// use.
func (s *Scope) Histogram(name string) *Histogram {
	full := s.full(name)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	h, ok := s.r.hists[full]
	if !ok {
		h = &Histogram{}
		s.r.hists[full] = h
	}
	return h
}

// Func registers a gauge computed at snapshot time (expvar-style). It
// costs nothing on any hot path and is ideal for derived values like a
// hash table's load factor. Re-registering a name replaces the function.
func (s *Scope) Func(name string, fn func() float64) {
	full := s.full(name)
	s.r.mu.Lock()
	s.r.funcs[full] = fn
	s.r.mu.Unlock()
}

// Scope returns a child scope named prefix.sub.
func (s *Scope) Scope(sub string) *Scope {
	return &Scope{r: s.r, prefix: s.full(sub)}
}

func (s *Scope) full(name string) string {
	if s.prefix == "" {
		return name
	}
	return s.prefix + "." + name
}

// --- snapshots ---

// Value is one metric in a snapshot. Exactly one of the fields besides
// Name and Kind is meaningful, selected by Kind ("counter", "gauge",
// "histogram"); IsFloat distinguishes float gauges from integer ones.
type Value struct {
	Name    string
	Kind    string
	Int     int64
	Float   float64
	IsFloat bool
	Hist    HistogramSnapshot
}

// Snapshot returns all metrics sorted by name. Sorting makes snapshots
// deterministic: two snapshots of the same quiescent registry are
// byte-identical however the metrics were registered.
func (r *Registry) Snapshot() []Value {
	r.mu.RLock()
	vals := make([]Value, 0,
		len(r.counters)+len(r.gauges)+len(r.hists)+len(r.funcs))
	for name, c := range r.counters {
		vals = append(vals, Value{Name: name, Kind: "counter", Int: c.Load()})
	}
	for name, g := range r.gauges {
		vals = append(vals, Value{Name: name, Kind: "gauge", Int: g.Load()})
	}
	for name, h := range r.hists {
		vals = append(vals, Value{Name: name, Kind: "histogram", Hist: h.Snapshot()})
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.RUnlock()
	// Snapshot functions outside the registry lock: they may acquire
	// component locks of their own and must not deadlock against a
	// component registering a metric.
	for name, fn := range funcs {
		vals = append(vals, Value{Name: name, Kind: "gauge", Float: fn(), IsFloat: true})
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Name < vals[j].Name })
	return vals
}

// WriteJSON writes the snapshot as a single sorted JSON object, in the
// style of expvar: counters and gauges are numbers, histograms are
// objects with count/sum/mean/p50/p95/p99/max. The output is hand-rolled
// (no reflection) so field order is exactly snapshot order and the
// encoding is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	vals := r.Snapshot()
	var b strings.Builder
	b.WriteString("{\n")
	for i, v := range vals {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, "  %q: ", v.Name)
		switch v.Kind {
		case "histogram":
			h := v.Hist
			fmt.Fprintf(&b,
				`{"count": %d, "sum": %d, "mean": %.1f, "p50": %d, "p95": %d, "p99": %d, "max": %d}`,
				h.Count, h.Sum, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		default:
			if v.IsFloat {
				fmt.Fprintf(&b, "%g", v.Float)
			} else {
				fmt.Fprintf(&b, "%d", v.Int)
			}
		}
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteText writes the snapshot as sorted "name value" lines, with
// histogram summaries expanded into name.count / name.mean / name.p99 …
// lines, for the trinity-bench -metrics dump.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, v := range r.Snapshot() {
		switch v.Kind {
		case "histogram":
			h := v.Hist
			fmt.Fprintf(&b, "%s.count %d\n", v.Name, h.Count)
			fmt.Fprintf(&b, "%s.sum %d\n", v.Name, h.Sum)
			fmt.Fprintf(&b, "%s.mean %.1f\n", v.Name, h.Mean())
			fmt.Fprintf(&b, "%s.p50 %d\n", v.Name, h.Quantile(0.50))
			fmt.Fprintf(&b, "%s.p95 %d\n", v.Name, h.Quantile(0.95))
			fmt.Fprintf(&b, "%s.p99 %d\n", v.Name, h.Quantile(0.99))
			fmt.Fprintf(&b, "%s.max %d\n", v.Name, h.Max)
		default:
			if v.IsFloat {
				fmt.Fprintf(&b, "%s %g\n", v.Name, v.Float)
			} else {
				fmt.Fprintf(&b, "%s %d\n", v.Name, v.Int)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
