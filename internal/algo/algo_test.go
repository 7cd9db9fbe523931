package algo

import (
	"context"
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
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 10 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

func loadUniform(t testing.TB, cloud *memcloud.Cloud, nodes, deg, labels int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(true)
	gen.BuildUniform(gen.UniformConfig{Nodes: nodes, AvgDegree: deg, Seed: seed}, labels, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPageRankRanksHubsHigher(t *testing.T) {
	cloud := newCloud(t, 3)
	// Star graph: everyone points at node 0.
	b := graph.NewBuilder(true)
	const n = 50
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, 0, "")
	}
	for i := uint64(1); i < n; i++ {
		b.AddEdge(i, 0)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PageRank(context.Background(), g, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	hub := res.Ranks[0]
	for i := uint64(1); i < n; i++ {
		if res.Ranks[i] >= hub {
			t.Fatalf("leaf %d rank %.3f >= hub rank %.3f", i, res.Ranks[i], hub)
		}
	}
}

func TestBFSLevels(t *testing.T) {
	cloud := newCloud(t, 3)
	// Binary-ish tree: i -> 2i+1, 2i+2 for i < 15 (31 nodes).
	b := graph.NewBuilder(true)
	for i := uint64(0); i < 31; i++ {
		b.AddNode(i, 0, "")
	}
	for i := uint64(0); i < 15; i++ {
		b.AddEdge(i, 2*i+1)
		b.AddEdge(i, 2*i+2)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 31 {
		t.Fatalf("reached = %d", res.Reached)
	}
	for id, lvl := range res.Levels {
		want := float64(bitsLen(id+1) - 1)
		if lvl != want {
			t.Fatalf("level(%d) = %v, want %v", id, lvl, want)
		}
	}
}

func bitsLen(x uint64) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

func TestBFSUnreachable(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(true)
	b.AddNode(1, 0, "")
	b.AddNode(2, 0, "")
	b.AddNode(3, 0, "")
	b.AddEdge(1, 2)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), g, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 2 {
		t.Fatalf("reached = %d", res.Reached)
	}
	if res.Levels[3] != Unreached {
		t.Fatalf("level(3) = %v", res.Levels[3])
	}
}

func TestBFSWithHubOptimizationMatches(t *testing.T) {
	cloud1 := newCloud(t, 4)
	g1 := loadUniform(t, cloud1, 400, 5, 0, 7)
	plain, err := BFS(context.Background(), g1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cloud2 := newCloud(t, 4)
	g2 := loadUniform(t, cloud2, 400, 5, 0, 7)
	hub, err := BFS(context.Background(), g2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Reached != hub.Reached {
		t.Fatalf("reached differ: %d vs %d", plain.Reached, hub.Reached)
	}
	for id, v := range plain.Levels {
		if hub.Levels[id] != v {
			t.Fatalf("level(%d): %v plain vs %v hub", id, v, hub.Levels[id])
		}
	}
}

func TestGenerateQueryHasEmbedding(t *testing.T) {
	cloud := newCloud(t, 2)
	g := loadUniform(t, cloud, 300, 8, 5, 3)
	for _, mode := range []QueryGenMode{GenDFS, GenRandom} {
		p, err := GenerateQuery(g, 5, mode, 42)
		if err != nil {
			t.Fatal(err)
		}
		if p.Size() != 5 {
			t.Fatalf("query size = %d", p.Size())
		}
		edges := p.edges()
		if len(edges) < 4 {
			t.Fatalf("query has %d edges, want a connected pattern", len(edges))
		}
		mt := NewMatcher(g)
		matches, err := mt.MatchBudget(context.Background(), 0, p, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("mode %v: no embedding found for an extracted pattern", mode)
		}
		verifyEmbedding(t, g, p, matches[0])
	}
}

func verifyEmbedding(t *testing.T, g *graph.Graph, p *Pattern, m []uint64) {
	t.Helper()
	seen := map[uint64]bool{}
	for qi, did := range m {
		if seen[did] {
			t.Fatalf("embedding not injective: %v", m)
		}
		seen[did] = true
		l, err := g.On(0).Label(context.Background(), did)
		if err != nil || l != p.Labels[qi] {
			t.Fatalf("query %d: label %d != %d", qi, l, p.Labels[qi])
		}
	}
	for u, vs := range p.Out {
		out, err := g.On(0).Outlinks(context.Background(), m[u])
		if err != nil {
			t.Fatal(err)
		}
		outSet := map[uint64]bool{}
		for _, o := range out {
			outSet[o] = true
		}
		for _, v := range vs {
			if !outSet[m[v]] {
				t.Fatalf("embedding misses edge %d->%d (%d->%d)", u, v, m[u], m[v])
			}
		}
	}
}

func TestMatchCountsTriangles(t *testing.T) {
	cloud := newCloud(t, 2)
	// A directed triangle 1->2->3->1 plus noise; query = triangle.
	b := graph.NewBuilder(true)
	for i := uint64(1); i <= 6; i++ {
		b.AddNode(i, 0, "")
	}
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 1)
	b.AddEdge(4, 5) // noise
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pattern{Labels: []int64{0, 0, 0}, Out: [][]int{{1}, {2}, {0}}}
	mt := NewMatcher(g)
	matches, err := mt.MatchBudget(context.Background(), 0, p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The triangle has 3 rotations as embeddings.
	if len(matches) != 3 {
		t.Fatalf("triangle embeddings = %d, want 3: %v", len(matches), matches)
	}
}

func TestMatchNoEmbedding(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(true)
	b.AddNode(1, 7, "")
	b.AddNode(2, 7, "")
	b.AddEdge(1, 2)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	mt := NewMatcher(g)
	// Label 9 does not exist.
	p := &Pattern{Labels: []int64{9, 9}, Out: [][]int{{1}, {}}}
	matches, err := mt.MatchBudget(context.Background(), 0, p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("found %d impossible embeddings", len(matches))
	}
}

func TestMatchLimit(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(true)
	// Complete bipartite-ish: 10 sources each pointing at 10 sinks.
	for s := uint64(0); s < 10; s++ {
		for d := uint64(100); d < 110; d++ {
			b.AddEdge(s, d)
		}
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	p := &Pattern{Labels: []int64{0, 0}, Out: [][]int{{1}, {}}}
	mt := NewMatcher(g)
	matches, err := mt.MatchBudget(context.Background(), 0, p, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) < 5 {
		t.Fatalf("limit returned %d matches", len(matches))
	}
}

func TestOracleStrategies(t *testing.T) {
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(false) // undirected for distances
	gen.BuildSocial(gen.SocialConfig{People: 600, AvgDegree: 8, Seed: 5}, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []LandmarkStrategy{ByDegree, ByGlobalBetweenness, ByLocalBetweenness} {
		o, err := BuildOracle(context.Background(), g, 10, strat, 1)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(o.Landmarks) != 10 {
			t.Fatalf("%v: %d landmarks", strat, len(o.Landmarks))
		}
		acc, err := o.Accuracy(context.Background(), 30, 2)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 30 || acc > 100 {
			t.Fatalf("%v: accuracy %.1f%% implausible", strat, acc)
		}
		t.Logf("%v: accuracy %.1f%%", strat, acc)
	}
}

func TestOracleEstimateIsUpperBound(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: 200, AvgDegree: 8, Seed: 9}, b)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	o, err := BuildOracle(context.Background(), g, 8, ByDegree, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id, actual := range res.Levels {
		if actual == Unreached || id == 0 {
			continue
		}
		est := o.Estimate(0, id)
		if est < actual {
			t.Fatalf("estimate(0,%d) = %v < actual %v (triangulation violated)", id, est, actual)
		}
	}
	if o.Estimate(5, 5) != 0 {
		t.Fatal("self-distance must be 0")
	}
}
