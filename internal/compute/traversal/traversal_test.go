package traversal

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func newCloud(t testing.TB, machines int) *memcloud.Cloud {
	c := memcloud.New(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 10 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

// chain 0->1->2->...->n-1 with labels = id%3.
func chainGraph(t testing.TB, cloud *memcloud.Cloud, n int) *graph.Graph {
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		b.AddNode(uint64(i), int64(i%3), "")
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(uint64(i), uint64(i+1))
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKHopOnChain(t *testing.T) {
	cloud := newCloud(t, 3)
	g := chainGraph(t, cloud, 20)
	e := New(g)
	for hops := 0; hops <= 5; hops++ {
		got, err := e.KHopNeighborhoodSize(context.Background(), 0, 0, hops)
		if err != nil {
			t.Fatal(err)
		}
		if got != hops+1 {
			t.Fatalf("KHop(%d) on chain = %d, want %d", hops, got, hops+1)
		}
	}
	// From the tail nothing is reachable.
	got, err := e.KHopNeighborhoodSize(context.Background(), 1, 19, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("KHop from sink = %d", got)
	}
}

func TestExploreMissingStart(t *testing.T) {
	cloud := newCloud(t, 2)
	g := chainGraph(t, cloud, 5)
	e := New(g)
	if _, err := e.Explore(context.Background(), 0, 999, 2, Predicate{}); !errors.Is(err, graph.ErrNoNode) {
		t.Fatalf("missing start: %v, want graph.ErrNoNode", err)
	}
}

// TestExploreDeadCoordinatorIsNotMissingStart: during a failover the
// start lookup fails; that is the lookup's error, not a missing node.
func TestExploreDeadCoordinatorIsNotMissingStart(t *testing.T) {
	cloud := newCloud(t, 3)
	g := chainGraph(t, cloud, 30)
	e := New(g)
	start := uint64(0)
	for cloud.Slave(0).Owner(start) != 2 {
		start++
	}
	cloud.KillMachine(1)
	_, err := e.Explore(context.Background(), 1, start, 2, Predicate{})
	if errors.Is(err, graph.ErrNoNode) || !errors.Is(err, msg.ErrClosed) {
		t.Fatalf("Explore via a dead coordinator: %v, want msg.ErrClosed", err)
	}
}

// refGraph is a sequential model of a loaded graph: out-lists in
// insertion order and the labels of the nodes that exist. An out-neighbor
// with no label is a dangling target: reached, but never a match and
// never expanded.
type refGraph struct {
	out    map[uint64][]uint64
	labels map[uint64]int64
}

// explore is the sequential model of Explore: a level-synchronous BFS
// that records each expanded level's size and tests the label predicate
// on every node reached, the start included. matches is ascending.
func (r *refGraph) explore(start uint64, hops int, pred Predicate) (visited int, levels []int, matches []uint64) {
	seen := map[uint64]bool{start: true}
	test := func(id uint64) {
		if l, ok := r.labels[id]; ok && pred.Mode == MatchLabel && l == pred.Label {
			matches = append(matches, id)
		}
	}
	test(start)
	frontier := []uint64{start}
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []uint64
		for _, u := range frontier {
			for _, v := range r.out[u] {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
					test(v)
				}
			}
		}
		levels = append(levels, len(next))
		frontier = next
	}
	slices.Sort(matches)
	return len(seen), levels, matches
}

// loadRef loads nodes 0..n-1 (label id%3) and edges into a directed
// graph, then appends each dangling edge's target — an id with no cell —
// to its source's out-list in place. It returns the graph and its model.
func loadRef(t *testing.T, cloud *memcloud.Cloud, n int, edges, dangling [][2]uint64) (*graph.Graph, *refGraph) {
	t.Helper()
	ctx := context.Background()
	r := &refGraph{out: map[uint64][]uint64{}, labels: map[uint64]int64{}}
	b := graph.NewBuilder(true)
	for i := uint64(0); i < uint64(n); i++ {
		b.AddNode(i, int64(i%3), "")
		r.labels[i] = int64(i % 3)
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
		r.out[e[0]] = append(r.out[e[0]], e[1])
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
		r.out[e[0]] = append(r.out[e[0]], e[1])
	}
	return g, r
}

func sortedCopy(ids []uint64) []uint64 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

func TestExploreMatchesAgainstReferenceBFS(t *testing.T) {
	// Distributed exploration must agree with a sequential BFS hop by hop
	// — Visited, Levels and the Matches set — from every coordinator and
	// for every hop count.
	const machines = 4
	var uniform [][2]uint64
	gen.Uniform(gen.UniformConfig{Nodes: 400, AvgDegree: 5, Seed: 9}, func(u, v uint64) {
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
	for i := uint64(0); i < plNodes; i += 40 {
		powerLaw = append(powerLaw, [2]uint64{i, i})
		dangling = append(dangling, [2]uint64{i / 2, plNodes + 1000 + i})
	}
	cases := []struct {
		name     string
		nodes    int
		edges    [][2]uint64
		dangling [][2]uint64
		starts   []uint64
	}{
		{"uniform", 400, uniform, nil, []uint64{0, 17, 399}},
		{"powerlaw", plNodes, powerLaw, dangling, []uint64{0, 20, 333, plNodes - 1}},
	}
	preds := []Predicate{{}, {Mode: MatchLabel, Label: 1}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ref := loadRef(t, newCloud(t, machines), tc.nodes, tc.edges, tc.dangling)
			e := New(g)
			for _, start := range tc.starts {
				for hops := 0; hops <= 4; hops++ {
					for _, pred := range preds {
						visited, levels, matches := ref.explore(start, hops, pred)
						for via := 0; via < machines; via++ {
							res, err := e.Explore(context.Background(), via, start, hops, pred)
							if err != nil {
								t.Fatal(err)
							}
							got := sortedCopy(res.Matches)
							if res.Visited != visited || !slices.Equal(res.Levels, levels) || !slices.Equal(got, matches) {
								t.Fatalf("start=%d hops=%d pred=%+v via=%d: visited %d levels %v matches %v; reference %d %v %v",
									start, hops, pred, via, res.Visited, res.Levels, got, visited, levels, matches)
							}
						}
					}
				}
			}
		})
	}
}

func TestConcurrentExploresAgree(t *testing.T) {
	// Queries share the engine's pooled coordinator and owner scratch, and
	// owners rebuild their views under them (every partition is
	// invalidated in a loop, which renumbers nothing but forces rebuilds):
	// concurrent answers must equal the sequential ones.
	const machines = 4
	var edges [][2]uint64
	gen.PowerLaw(gen.PowerLawConfig{Nodes: 800, AvgDegree: 6, Seed: 11}, func(u, v uint64) {
		edges = append(edges, [2]uint64{u, v})
	})
	g, _ := loadRef(t, newCloud(t, machines), 800, edges, nil)
	e := New(g)
	type query struct {
		via   int
		start uint64
		hops  int
		pred  Predicate
	}
	var queries []query
	var want []*Result
	for i := 0; i < 24; i++ {
		q := query{i % machines, uint64(i * 31 % 800), 1 + i%4, Predicate{Mode: MatchLabel, Label: int64(i % 3)}}
		res, err := e.Explore(context.Background(), q.via, q.start, q.hops, q.pred)
		if err != nil {
			t.Fatal(err)
		}
		queries, want = append(queries, q), append(want, res)
	}
	stop := make(chan struct{})
	invalidated := make(chan struct{})
	go func() {
		defer close(invalidated)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < machines; i++ {
				g.On(i).InvalidatePartition()
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range queries {
				i := (k + w*5) % len(queries)
				q := queries[i]
				res, err := e.Explore(context.Background(), q.via, q.start, q.hops, q.pred)
				if err != nil {
					t.Error(err)
					return
				}
				got, exp := sortedCopy(res.Matches), sortedCopy(want[i].Matches)
				if res.Visited != want[i].Visited || !slices.Equal(res.Levels, want[i].Levels) || !slices.Equal(got, exp) {
					t.Errorf("query %+v: concurrent %d %v %v, sequential %d %v %v",
						q, res.Visited, res.Levels, got, want[i].Visited, want[i].Levels, exp)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-invalidated
}

func TestMatchesUniqueOnCyclicMultigraph(t *testing.T) {
	// A ring with doubled edges and chords, every node a match: each node
	// is reached along many paths and offered by several owners in the
	// same level, yet must be reported once.
	const n = 30
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(true)
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, 7, "")
	}
	for i := uint64(0); i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+3)%n)
		b.AddEdge(i, i)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	for via := 0; via < 4; via++ {
		res, err := e.Explore(context.Background(), via, 5, 40, Predicate{Mode: MatchLabel, Label: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := sortedCopy(res.Matches)
		if len(slices.Compact(got)) != len(res.Matches) {
			t.Fatalf("via %d: duplicate matches %v", via, res.Matches)
		}
		if len(res.Matches) != n || res.Visited != n {
			t.Fatalf("via %d: %d matches, %d visited; want %d each", via, len(res.Matches), res.Visited, n)
		}
	}
}

func TestPredicateLabel(t *testing.T) {
	cloud := newCloud(t, 3)
	g := chainGraph(t, cloud, 10) // labels are id%3
	e := New(g)
	res, err := e.Explore(context.Background(), 0, 0, 6, Predicate{Mode: MatchLabel, Label: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 1 and 4 have label 1 within 6 hops {0..6}: ids 1, 4 and... 7?
	// labels: id%3==1 -> 1,4,7(hop 7? no: node 7 is 7 hops away? hop = id).
	// Reachable in <=6 hops: ids 0..6; labels 1: ids 1 and 4.
	want := map[uint64]bool{1: true, 4: true}
	if len(res.Matches) != len(want) {
		t.Fatalf("matches = %v", res.Matches)
	}
	for _, id := range res.Matches {
		if !want[id] {
			t.Fatalf("unexpected match %d", id)
		}
	}
}

func TestPredicateIncludesStartAndLastHop(t *testing.T) {
	cloud := newCloud(t, 2)
	g := chainGraph(t, cloud, 5)
	e := New(g)
	// Start node 0 has label 0; all label-0 nodes within 3 hops: 0, 3.
	res, err := e.Explore(context.Background(), 0, 0, 3, Predicate{Mode: MatchLabel, Label: 0})
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, id := range res.Matches {
		found[id] = true
	}
	if !found[0] {
		t.Fatal("start node not tested against predicate")
	}
	if !found[3] {
		t.Fatal("final-hop node not tested against predicate")
	}
	if len(found) != 2 {
		t.Fatalf("matches = %v", res.Matches)
	}
}

func TestPredicateNamePrefix(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(false)
	b.AddNode(1, 0, "David Smith")
	b.AddNode(2, 0, "Daniel Jones")
	b.AddNode(3, 0, "David Lee")
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	res, err := e.Explore(context.Background(), 0, 1, 2, Predicate{Mode: MatchNamePrefix, Prefix: "David"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v, want nodes 1 and 3", res.Matches)
	}
}

func TestPeopleSearchFindsDavids(t *testing.T) {
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: 3000, AvgDegree: 20, Seed: 2}, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	davidLabel := int64(hash.String("David"))
	// Pick a start with decent degree so the 3-hop ball is non-trivial.
	start := uint64(0)
	matches, err := e.PeopleSearch(context.Background(), 0, start, davidLabel, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Verify every match really is a David and within 3 hops.
	res, _ := e.Explore(context.Background(), 0, start, 3, Predicate{})
	if res.Visited < 100 {
		t.Skipf("3-hop ball too small (%d) for a meaningful check", res.Visited)
	}
	for _, id := range matches {
		name, err := g.On(0).Name(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(name, "David") {
			t.Fatalf("match %d is %q, not a David", id, name)
		}
	}
	if len(matches) == 0 {
		t.Fatalf("no Davids within 3 hops of a %d-node ball", res.Visited)
	}
}

func TestLevelsReported(t *testing.T) {
	cloud := newCloud(t, 2)
	// Star: 0 -> 1..10, 1 -> 11.
	b := graph.NewBuilder(true)
	for i := uint64(0); i <= 11; i++ {
		b.AddNode(i, 0, "")
	}
	for i := uint64(1); i <= 10; i++ {
		b.AddEdge(0, i)
	}
	b.AddEdge(1, 11)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	res, err := e.Explore(context.Background(), 0, 0, 2, Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 2 || res.Levels[0] != 10 || res.Levels[1] != 1 {
		t.Fatalf("levels = %v, want [10 1]", res.Levels)
	}
	if res.Visited != 12 {
		t.Fatalf("visited = %d", res.Visited)
	}
}

func TestExploreFromEveryMachine(t *testing.T) {
	cloud := newCloud(t, 4)
	g := chainGraph(t, cloud, 30)
	e := New(g)
	for via := 0; via < 4; via++ {
		got, err := e.KHopNeighborhoodSize(context.Background(), via, 0, 10)
		if err != nil {
			t.Fatalf("via %d: %v", via, err)
		}
		if got != 11 {
			t.Fatalf("via %d: visited = %d", via, got)
		}
	}
}

func TestCyclesDoNotLoop(t *testing.T) {
	cloud := newCloud(t, 2)
	// Triangle with a cycle.
	b := graph.NewBuilder(true)
	for i := uint64(0); i < 3; i++ {
		b.AddNode(i, 0, "")
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	got, err := e.KHopNeighborhoodSize(context.Background(), 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("visited = %d on a triangle", got)
	}
}

// naiveKHopCells is the pre-pipeline client-side traversal: one blocking
// per-key Get round trip per remote cell. It exists as the baseline the
// fetch pipeline is measured against.
func naiveKHopCells(g *graph.Graph, via int, start uint64, hops int) (int, error) {
	m := g.On(via)
	type item struct {
		id  uint64
		hop int
	}
	visited := map[uint64]bool{start: true}
	queue := []item{{start, 0}}
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		blob, err := m.Slave().Get(context.Background(), it.id)
		if err != nil {
			if errors.Is(err, memcloud.ErrNotFound) {
				continue
			}
			return 0, err
		}
		n, err := graph.DecodeNode(it.id, blob)
		if err != nil {
			return 0, err
		}
		if it.hop >= hops {
			continue
		}
		for _, dst := range n.Outlinks {
			if !visited[dst] {
				visited[dst] = true
				queue = append(queue, item{dst, it.hop + 1})
			}
		}
	}
	return len(visited), nil
}

func TestExploreCellsMatchesExplore(t *testing.T) {
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(true)
	gen.BuildUniform(gen.UniformConfig{Nodes: 400, AvgDegree: 5, Seed: 9}, 4, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	preds := []Predicate{
		{},
		{Mode: MatchLabel, Label: 1},
	}
	for _, start := range []uint64{0, 17, 399} {
		for hops := 0; hops <= 4; hops++ {
			for _, pred := range preds {
				want, err := e.Explore(context.Background(), int(start)%4, start, hops, pred)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.ExploreCells(context.Background(), int(start)%4, start, hops, pred)
				if err != nil {
					t.Fatal(err)
				}
				if got.Visited != want.Visited {
					t.Fatalf("start=%d hops=%d: cells visited %d, explore %d",
						start, hops, got.Visited, want.Visited)
				}
				gm := append([]uint64(nil), got.Matches...)
				wm := append([]uint64(nil), want.Matches...)
				sort.Slice(gm, func(i, j int) bool { return gm[i] < gm[j] })
				sort.Slice(wm, func(i, j int) bool { return wm[i] < wm[j] })
				if !reflect.DeepEqual(gm, wm) {
					t.Fatalf("start=%d hops=%d: cells matches %v, explore %v",
						start, hops, gm, wm)
				}
				if !reflect.DeepEqual(got.Levels, want.Levels) {
					t.Fatalf("start=%d hops=%d: cells levels %v, explore %v",
						start, hops, got.Levels, want.Levels)
				}
			}
		}
	}
}

func TestExploreCellsMissingStart(t *testing.T) {
	cloud := newCloud(t, 2)
	g := chainGraph(t, cloud, 5)
	e := New(g)
	if _, err := e.ExploreCells(context.Background(), 0, 999, 2, Predicate{}); err == nil {
		t.Fatal("missing start accepted")
	}
}

// TestExploreCellsFewerRoundTrips is the acceptance check for the fetch
// pipeline: the same multi-hop traversal must cost measurably fewer
// transport round trips through the pipeline than through blocking
// per-key Gets. Round trips are counted from the coordinator node's
// sync_calls counter, and the pipeline's own round_trips_saved counter
// must corroborate.
func TestExploreCellsFewerRoundTrips(t *testing.T) {
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: 2000, AvgDegree: 10, Seed: 3}, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	reg := cloud.Metrics()
	syncCalls := reg.Scope("msg.m0").Counter("sync_calls")

	const start, hops = 0, 3
	wantVisited, err := naiveKHopCells(g, 0, start, hops)
	if err != nil {
		t.Fatal(err)
	}
	before := syncCalls.Load()
	if _, err := naiveKHopCells(g, 0, start, hops); err != nil {
		t.Fatal(err)
	}
	perKey := syncCalls.Load() - before

	saved := reg.Scope("fetch.m0").Counter("round_trips_saved")
	savedBefore := saved.Load()
	before = syncCalls.Load()
	res, err := e.ExploreCells(context.Background(), 0, start, hops, Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	pipelined := syncCalls.Load() - before

	if res.Visited != wantVisited {
		t.Fatalf("pipelined traversal visited %d, per-key %d", res.Visited, wantVisited)
	}
	if res.Visited < 200 {
		t.Fatalf("3-hop ball too small (%d) to measure batching", res.Visited)
	}
	t.Logf("round trips: per-key=%d pipelined=%d (visited %d)", perKey, pipelined, res.Visited)
	if pipelined*2 >= perKey {
		t.Fatalf("pipeline used %d round trips vs %d per-key: batching saved too little", pipelined, perKey)
	}
	if got := saved.Load() - savedBefore; got == 0 {
		t.Fatal("round_trips_saved did not advance during a pipelined traversal")
	}
}

func BenchmarkThreeHopExploration(b *testing.B) {
	// The §5.1 headline: explore the full 3-hop neighborhood of a node in
	// a power-law social graph spread over 8 simulated machines.
	cloud := newCloud(b, 8)
	bl := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: 20000, AvgDegree: 13, Seed: 1}, bl)
	g, err := bl.Load(context.Background(), cloud)
	if err != nil {
		b.Fatal(err)
	}
	e := New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.KHopNeighborhoodSize(context.Background(), 0, uint64(i%20000), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCellsGraph builds the client-side-traversal benchmark fixture: the
// same social graph as BenchmarkThreeHopExploration but smaller, since
// cell-mode traversals ship whole cells rather than ids.
func benchCellsGraph(b *testing.B) *graph.Graph {
	cloud := newCloud(b, 8)
	bl := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: 5000, AvgDegree: 13, Seed: 1}, bl)
	g, err := bl.Load(context.Background(), cloud)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkThreeHopCellsPipelined is the client-side cell-mode traversal
// through the async batched fetch pipeline.
func BenchmarkThreeHopCellsPipelined(b *testing.B) {
	g := benchCellsGraph(b)
	e := New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExploreCells(context.Background(), 0, uint64(i%5000), 3, Predicate{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKHopServeMix runs graph_serve's query shape in process: KHOP 2
// and KHOP 3 alternating, from a fixed pool of 1,024 starts, over a
// 10k-node power-law graph of degree 10 on 4 machines, coordinated by
// machine 0 as the daemon does. The trickle variant makes every 100th
// operation an AddEdge between random nodes, entered at the source's
// owner, and reports how many partition views were rebuilt (builds/op)
// and patched (derives/op) per operation.
func BenchmarkKHopServeMix(b *testing.B) {
	b.Run("reads", func(b *testing.B) { benchKHopServeMix(b, 0) })
	b.Run("trickle", func(b *testing.B) { benchKHopServeMix(b, 100) })
}

// benchKHopServeMix runs the mix with one AddEdge every writeEvery
// operations (none when 0).
func benchKHopServeMix(b *testing.B, writeEvery int) {
	const nodes = 10_000
	cloud := newCloud(b, 4)
	bl := graph.NewBuilder(true)
	for i := uint64(0); i < nodes; i++ {
		bl.AddNode(i, 0, "")
	}
	gen.PowerLaw(gen.PowerLawConfig{Nodes: nodes, AvgDegree: 10, Seed: 1}, bl.AddEdge)
	g, err := bl.Load(context.Background(), cloud)
	if err != nil {
		b.Fatal(err)
	}
	e := New(g)
	rng := hash.NewRNG(2)
	starts := make([]uint64, 1024)
	for i := range starts {
		starts[i] = uint64(rng.Intn(nodes))
	}
	scope := cloud.Metrics().Scope("view")
	builds, derives := scope.Counter("builds"), scope.Counter("derives")
	anchor := g.On(0).Slave()
	for i := 0; i < g.Machines(); i++ { // the cold builds are set-up
		if _, err := view.Acquire(g.On(i)); err != nil {
			b.Fatal(err)
		}
	}
	visited := 0
	b.ResetTimer()
	builds0, derives0 := builds.Load(), derives.Load()
	for i := 0; i < b.N; i++ {
		if writeEvery > 0 && i%writeEvery == writeEvery-1 {
			src, dst := uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))
			if err := g.On(int(anchor.Owner(src))).AddEdge(context.Background(), src, dst); err != nil {
				b.Fatal(err)
			}
			continue
		}
		n, err := e.KHopNeighborhoodSize(context.Background(), 0, starts[i%len(starts)], 2+i%2)
		if err != nil {
			b.Fatal(err)
		}
		visited += n
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
	if writeEvery > 0 {
		b.ReportMetric(float64(builds.Load()-builds0)/float64(b.N), "builds/op")
		b.ReportMetric(float64(derives.Load()-derives0)/float64(b.N), "derives/op")
	}
}
