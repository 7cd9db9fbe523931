package bsp

import (
	"context"
	"math"
	"testing"
	"time"

	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func newCloud(t testing.TB, machines int) *memcloud.Cloud {
	c := memcloud.New(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 5 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

// ringGraph returns a directed ring of n nodes over the cloud.
func ringGraph(t testing.TB, cloud *memcloud.Cloud, n int) *graph.Graph {
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		b.AddNode(uint64(i), 0, "")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(uint64(i), uint64((i+1)%n))
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pagerank is the canonical restrictive-model program.
type pagerank struct {
	iters int
}

func (p *pagerank) Init(id uint64, outDeg int) (float64, bool) { return 1.0, true }

func (p *pagerank) Compute(ctx *Context, id uint64, val float64, msgs []float64) (float64, bool) {
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		val = 0.15 + 0.85*sum
	}
	if ctx.Superstep() < p.iters {
		deg := ctx.OutDegree()
		if deg > 0 {
			ctx.SendToAllOut(val / float64(deg))
		}
		return val, false
	}
	return val, true
}

// propagateMax floods the maximum vertex ID through the graph (a classic
// connectivity program: converges when every vertex holds the global max
// within its component).
type propagateMax struct{}

func (propagateMax) Init(id uint64, _ int) (float64, bool) { return float64(id), true }

func (propagateMax) Compute(ctx *Context, id uint64, val float64, msgs []float64) (float64, bool) {
	changed := ctx.Superstep() == 0
	for _, m := range msgs {
		if m > val {
			val = m
			changed = true
		}
	}
	if changed {
		ctx.SendToAllOut(val)
	}
	return val, true // halt; reactivated by messages
}

func TestPageRankOnRing(t *testing.T) {
	cloud := newCloud(t, 2)
	g := ringGraph(t, cloud, 40)
	e := New(g, Options{Combine: func(a, b float64) float64 { return a + b }})
	steps, err := e.Run(context.Background(), &pagerank{iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if steps < 30 {
		t.Fatalf("steps = %d", steps)
	}
	// On a ring every vertex has identical rank 1.0 at the fixpoint.
	for id, v := range e.Values() {
		if math.Abs(v-1.0) > 1e-6 {
			t.Fatalf("rank(%d) = %f, want 1.0", id, v)
		}
	}
}

func TestPageRankMatchesSequentialReference(t *testing.T) {
	// The distributed engine must agree with a straightforward sequential
	// PageRank over the same adjacency, vertex by vertex.
	cloud := newCloud(t, 3)
	b := graph.NewBuilder(true)
	gen.BuildUniform(gen.UniformConfig{Nodes: 200, AvgDegree: 6, Seed: 1}, 0, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: same update rule, dense arrays.
	const n = 200
	const iters = 20
	adj := make([][]uint64, n)
	for i := 0; i < n; i++ {
		out, err := g.On(0).Outlinks(context.Background(), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		adj[i] = out
	}
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		in := make([]float64, n)
		for u, out := range adj {
			if len(out) == 0 {
				continue
			}
			share := ref[u] / float64(len(out))
			for _, v := range out {
				in[v] += share
			}
		}
		for i := range ref {
			ref[i] = 0.15 + 0.85*in[i]
		}
	}
	e := New(g, Options{Combine: func(a, b float64) float64 { return a + b }})
	if _, err := e.Run(context.Background(), &pagerank{iters: iters}); err != nil {
		t.Fatal(err)
	}
	for id, v := range e.Values() {
		if math.Abs(v-ref[id]) > 1e-9 {
			t.Fatalf("rank(%d) = %.12f, reference %.12f", id, v, ref[id])
		}
	}
}

func TestMaxPropagationConverges(t *testing.T) {
	cloud := newCloud(t, 4)
	g := ringGraph(t, cloud, 64)
	e := New(g, Options{})
	steps, err := e.Run(context.Background(), propagateMax{})
	if err != nil {
		t.Fatal(err)
	}
	// The ring needs ~n steps to flood; engine must then self-terminate.
	if steps < 10 || steps > 80 {
		t.Fatalf("steps = %d", steps)
	}
	for id, v := range e.Values() {
		if v != 63 {
			t.Fatalf("vertex %d converged to %f, want 63", id, v)
		}
	}
}

func TestVoteToHaltTerminates(t *testing.T) {
	cloud := newCloud(t, 2)
	g := ringGraph(t, cloud, 10)
	e := New(g, Options{})
	// A program that halts immediately must terminate in one superstep.
	steps, err := e.Run(context.Background(), haltNow{})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("steps = %d, want 1", steps)
	}
}

type haltNow struct{}

func (haltNow) Init(uint64, int) (float64, bool) { return 0, true }
func (haltNow) Compute(*Context, uint64, float64, []float64) (float64, bool) {
	return 0, true
}

func TestMaxSuperstepsBound(t *testing.T) {
	cloud := newCloud(t, 2)
	g := ringGraph(t, cloud, 10)
	e := New(g, Options{MaxSupersteps: 3})
	steps, err := e.Run(context.Background(), neverHalt{})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps = %d, want 3", steps)
	}
}

type neverHalt struct{}

func (neverHalt) Init(uint64, int) (float64, bool) { return 0, true }
func (neverHalt) Compute(ctx *Context, id uint64, v float64, _ []float64) (float64, bool) {
	ctx.SendToAllOut(1)
	return v, false
}

func TestHubOptimizationEquivalence(t *testing.T) {
	// PageRank results must be identical with and without hub buffering,
	// but wire messages must drop on a hub-heavy graph.
	build := func() *graph.Graph {
		cloud := newCloud(t, 4)
		b := graph.NewBuilder(true)
		gen.BuildRMAT(gen.RMATConfig{Scale: 9, AvgDegree: 8, Seed: 11}, 0, b)
		g, err := b.Load(context.Background(), cloud)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	run := func(g *graph.Graph, hub int) (map[uint64]float64, int64) {
		e := New(g, Options{
			Combine:      func(a, b float64) float64 { return a + b },
			HubThreshold: hub,
		})
		if _, err := e.Run(context.Background(), &pagerank{iters: 5}); err != nil {
			t.Fatal(err)
		}
		return e.Values(), e.WireMessages()
	}
	base, baseWire := run(build(), 0)
	opt, optWire := run(build(), 4)
	if len(base) != len(opt) {
		t.Fatalf("value sets differ: %d vs %d", len(base), len(opt))
	}
	for id, v := range base {
		if math.Abs(v-opt[id]) > 1e-9 {
			t.Fatalf("rank(%d): %f (plain) != %f (hub)", id, v, opt[id])
		}
	}
	if optWire >= baseWire {
		t.Fatalf("hub optimization did not reduce wire messages: %d -> %d", baseWire, optWire)
	}
	t.Logf("wire messages: %d plain, %d hub-optimized (%.1f%% saved)",
		baseWire, optWire, 100*float64(baseWire-optWire)/float64(baseWire))
}

func TestEmptyGraph(t *testing.T) {
	cloud := newCloud(t, 2)
	g := graph.New(cloud, true)
	e := New(g, Options{MaxSupersteps: 5})
	steps, err := e.Run(context.Background(), haltNow{})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("steps on empty graph = %d", steps)
	}
}

func BenchmarkPageRankIteration(b *testing.B) {
	cloud := newCloud(b, 4)
	bl := graph.NewBuilder(true)
	gen.BuildRMAT(gen.RMATConfig{Scale: 12, AvgDegree: 8, Seed: 1}, 0, bl)
	g, err := bl.Load(context.Background(), cloud)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(g, Options{
			Combine:      func(a, b float64) float64 { return a + b },
			HubThreshold: 8,
		})
		if _, err := e.Run(context.Background(), &pagerank{iters: 3}); err != nil {
			b.Fatal(err)
		}
	}
}
