package traversal

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"trinity/internal/gen"
	"trinity/internal/graph"
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
	if _, err := e.Explore(context.Background(), 0, 999, 2, Predicate{}); err == nil {
		t.Fatal("missing start accepted")
	}
}

func TestExploreMatchesAgainstReferenceBFS(t *testing.T) {
	// Distributed exploration must agree with a sequential BFS on a
	// random graph, for every hop count.
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(true)
	gen.BuildUniform(gen.UniformConfig{Nodes: 400, AvgDegree: 5, Seed: 9}, 4, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference.
	adj := make([][]uint64, 400)
	for i := range adj {
		adj[i], _ = g.On(0).Outlinks(context.Background(), uint64(i))
	}
	refKHop := func(start uint64, hops int) map[uint64]int {
		dist := map[uint64]int{start: 0}
		frontier := []uint64{start}
		for d := 1; d <= hops && len(frontier) > 0; d++ {
			var next []uint64
			for _, u := range frontier {
				for _, v := range adj[u] {
					if _, ok := dist[v]; !ok {
						dist[v] = d
						next = append(next, v)
					}
				}
			}
			frontier = next
		}
		return dist
	}
	e := New(g)
	for _, start := range []uint64{0, 17, 399} {
		for hops := 0; hops <= 4; hops++ {
			ref := refKHop(start, hops)
			got, err := e.KHopNeighborhoodSize(context.Background(), int(start)%4, start, hops)
			if err != nil {
				t.Fatal(err)
			}
			if got != len(ref) {
				t.Fatalf("KHop(%d, %d) = %d, reference %d", start, hops, got, len(ref))
			}
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
