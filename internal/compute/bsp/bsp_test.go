package bsp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"trinity/internal/buf"
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

func (p *pagerank) Combine(a, b float64) float64 { return a + b }

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

func (propagateMax) Combine(a, b float64) float64 { return math.Max(a, b) }

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
	e := New(g, Options{})
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

// refGraph is a sequential model of a loaded graph: every node's stored
// out-list. An out-neighbor that is no node is a dangling target.
type refGraph struct {
	out [][]uint64 // by node id 0..n-1
}

func (r *refGraph) isNode(id uint64) bool { return id < uint64(len(r.out)) }

// pageRank runs the engine's update rule over dense arrays: a vertex's
// share goes to every out-edge, and a dangling target's share is lost.
func (r *refGraph) pageRank(iters int) []float64 {
	rank := make([]float64, len(r.out))
	for i := range rank {
		rank[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		in := make([]float64, len(r.out))
		for u, out := range r.out {
			for _, v := range out {
				if r.isNode(v) {
					in[v] += rank[u] / float64(len(out))
				}
			}
		}
		for i := range rank {
			rank[i] = 0.15 + 0.85*in[i]
		}
	}
	return rank
}

// bfs returns hop distances from src, algo.Unreached's -1 where none.
func (r *refGraph) bfs(src uint64) []float64 {
	level := make([]float64, len(r.out))
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	for frontier := []uint64{src}; len(frontier) > 0; {
		var next []uint64
		for _, u := range frontier {
			for _, v := range r.out[u] {
				if r.isNode(v) && level[v] < 0 {
					level[v] = level[u] + 1
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level
}

// dropped counts the messages the engine drops when vertex u broadcasts
// in supersteps steps(u): one per edge to a dangling target that the
// sender's own machine owns, and one per (sending machine, target,
// superstep) to a dangling target that another machine owns, since the
// sender combines those into one pair. perEdge is the count without
// sender-side combining.
func (r *refGraph) dropped(owner func(uint64) msg.MachineID, steps func(u int) []int) (want, perEdge int64) {
	type pair struct {
		from msg.MachineID
		to   uint64
		step int
	}
	remote := make(map[pair]bool)
	for u, out := range r.out {
		from := owner(uint64(u))
		for _, step := range steps(u) {
			for _, v := range out {
				switch {
				case r.isNode(v):
					continue
				case owner(v) == from:
					want++
				default:
					remote[pair{from, v, step}] = true
				}
				perEdge++
			}
		}
	}
	return want + int64(len(remote)), perEdge
}

// loadRef loads nodes 0..n-1 and edges into a directed graph, appends
// each dangling edge's target (an id with no cell) to its source's
// out-list in place, and models what was stored.
func loadRef(t *testing.T, cloud *memcloud.Cloud, n int, edges, dangling [][2]uint64) (*graph.Graph, *refGraph) {
	t.Helper()
	ctx := context.Background()
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		b.AddNode(uint64(i), 0, "")
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Load(ctx, cloud)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range dangling {
		node, err := g.On(0).GetNode(ctx, e[0])
		if err != nil {
			t.Fatal(err)
		}
		node.Outlinks = append(node.Outlinks, e[1])
		if err := g.On(0).PutNode(ctx, node); err != nil {
			t.Fatal(err)
		}
	}
	r := &refGraph{out: make([][]uint64, n)}
	for i := range r.out {
		if r.out[i], err = g.On(0).Outlinks(ctx, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g, r
}

// bfsProg is the BFS kernel: a vertex takes the least level offered and
// offers the next one to its out-neighbors once.
type bfsProg struct{ src uint64 }

func (p bfsProg) Init(id uint64, _ int) (float64, bool) {
	if id == p.src {
		return 0, true
	}
	return -1, false
}

func (bfsProg) Combine(a, b float64) float64 { return math.Min(a, b) }

func (p bfsProg) Compute(ctx *Context, id uint64, val float64, msgs []float64) (float64, bool) {
	if ctx.Superstep() == 0 {
		if id == p.src {
			ctx.SendToAllOut(1)
		}
		return val, true
	}
	if val >= 0 || len(msgs) == 0 {
		return val, true
	}
	ctx.SendToAllOut(msgs[0] + 1)
	return msgs[0], true
}

func TestPageRankMatchesSequentialReference(t *testing.T) {
	// The distributed engine must agree with a straightforward sequential
	// model over the same stored adjacency, vertex by vertex: PageRank
	// and BFS, with and without hub buffering, on 3 and 4 machines. Every
	// message to a dangling target is counted as dropped: per edge when
	// the sender's machine owns it, per combined pair when another does.
	const iters = 20
	var uniform [][2]uint64
	gen.Uniform(gen.UniformConfig{Nodes: 200, AvgDegree: 6, Seed: 1}, func(u, v uint64) {
		uniform = append(uniform, [2]uint64{u, v})
	})
	// Power law with hubs, plus self-loops, duplicate edges and edges to
	// ids that have no cell.
	const plNodes = 600
	var powerLaw, dangling [][2]uint64
	gen.PowerLaw(gen.PowerLawConfig{Nodes: plNodes, AvgDegree: 6, Seed: 5}, func(u, v uint64) {
		powerLaw = append(powerLaw, [2]uint64{u, v})
		if u%7 == 0 {
			powerLaw = append(powerLaw, [2]uint64{u, v})
		}
	})
	for i := uint64(0); i < plNodes; i += 20 {
		powerLaw = append(powerLaw, [2]uint64{i, i})
		dangling = append(dangling, [2]uint64{i / 2, plNodes + 1000 + i})
	}
	// One dangling target with in-edges from several sources, so that
	// some machine holds two of them and the sender combines their
	// messages into one pair.
	for u := uint64(1); u <= 32; u++ {
		dangling = append(dangling, [2]uint64{u, plNodes + 5000})
	}
	graphs := []struct {
		name            string
		nodes           int
		edges, dangling [][2]uint64
	}{
		{"uniform", 200, uniform, nil},
		{"powerlaw", plNodes, powerLaw, dangling},
	}
	for _, gc := range graphs {
		for machines := 3; machines <= 4; machines++ {
			cloud := newCloud(t, machines)
			g, ref := loadRef(t, cloud, gc.nodes, gc.edges, gc.dangling)
			dropped := cloud.Metrics().Scope("bsp").Counter("messages_dropped")
			levels := ref.bfs(0)
			progs := []struct {
				name string
				prog Program
				want []float64
				// steps are the supersteps vertex u broadcasts in.
				steps func(u int) []int
			}{
				{"pagerank", &pagerank{iters: iters}, ref.pageRank(iters), func(int) []int {
					steps := make([]int, iters)
					for i := range steps {
						steps[i] = i
					}
					return steps
				}},
				{"bfs", bfsProg{src: 0}, levels, func(u int) []int {
					if levels[u] >= 0 {
						return []int{int(levels[u])} // once, when reached
					}
					return nil
				}},
			}
			for _, pc := range progs {
				for _, hub := range []int{0, 4} {
					name := fmt.Sprintf("%s/machines=%d/%s/hub=%d", gc.name, machines, pc.name, hub)
					t.Run(name, func(t *testing.T) {
						before := dropped.Load()
						e := New(g, Options{HubThreshold: hub})
						if _, err := e.Run(context.Background(), pc.prog); err != nil {
							t.Fatal(err)
						}
						vals := e.Values()
						if len(vals) != len(pc.want) {
							t.Fatalf("%d values, want %d", len(vals), len(pc.want))
						}
						for id, v := range vals {
							if math.Abs(v-pc.want[id]) > 1e-9 {
								t.Fatalf("value(%d) = %.12f, reference %.12f", id, v, pc.want[id])
							}
						}
						if hub > 0 {
							return
						}
						want, perEdge := ref.dropped(cloud.Slave(0).Owner, pc.steps)
						if gc.dangling != nil && want == 0 {
							t.Fatal("no message to a dangling target: the case tests nothing")
						}
						if gc.dangling != nil && pc.name == "pagerank" && want == perEdge {
							t.Fatal("no dangling pair combined at the sender: the case tests nothing")
						}
						if got := dropped.Load() - before; got != want {
							t.Fatalf("messages_dropped = %d, want %d", got, want)
						}
					})
				}
			}
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
func (haltNow) Combine(a, b float64) float64     { return a + b }
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
func (neverHalt) Combine(a, b float64) float64     { return a + b }
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
		e := New(g, Options{HubThreshold: hub})
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

// dropScriptReplies loses every reply to an action script: the hub owner
// applies the script, but the subscriber's call times out. A msg frame
// starts kind(1) proto(2); kind 2 is a sync reply.
type dropScriptReplies struct{ msg.Transport }

func (d dropScriptReplies) Send(to msg.MachineID, frame *buf.Lease) error {
	if b := frame.Bytes(); len(b) >= 3 && b[0] == 2 &&
		msg.ProtocolID(binary.LittleEndian.Uint16(b[1:])) == protoActionScript {
		frame.Release()
		return nil
	}
	return d.Transport.Send(to, frame)
}

func TestHubSubscriptionSurvivesLostReplies(t *testing.T) {
	// Every hub owner applies its scripts, and every subscriber's calls
	// time out. The subscribers must still fan out the hub copies the
	// owners then send in place of the per-edge messages.
	cloud := memcloud.New(memcloud.Config{
		Machines:      4,
		Msg:           msg.Options{FlushInterval: time.Millisecond, CallTimeout: 200 * time.Millisecond},
		TransportWrap: func(tr msg.Transport) msg.Transport { return dropScriptReplies{tr} },
	})
	t.Cleanup(cloud.Close)
	var edges [][2]uint64
	gen.PowerLaw(gen.PowerLawConfig{Nodes: 600, AvgDegree: 6, Seed: 5}, func(u, v uint64) {
		edges = append(edges, [2]uint64{u, v})
	})
	g, ref := loadRef(t, cloud, 600, edges, nil)
	const iters = 20
	e := New(g, Options{HubThreshold: 4})
	if _, err := e.Run(context.Background(), &pagerank{iters: iters}); err != nil {
		t.Fatal(err)
	}
	if cloud.Metrics().Scope("bsp").Counter("hub_script_failures").Load() == 0 {
		t.Fatal("no action script failed: the case tests nothing")
	}
	want := ref.pageRank(iters)
	for id, v := range e.Values() {
		if math.Abs(v-want[id]) > 1e-9 {
			t.Fatalf("rank(%d) = %.12f, reference %.12f", id, v, want[id])
		}
	}
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
	for _, hubs := range []int{0, 8} {
		b.Run(fmt.Sprintf("hubs=%d", hubs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := New(g, Options{HubThreshold: hubs})
				if _, err := e.Run(context.Background(), &pagerank{iters: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
