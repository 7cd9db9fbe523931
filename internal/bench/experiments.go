package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"trinity/internal/algo"
	"trinity/internal/baseline/giraph"
	"trinity/internal/baseline/pbgl"
	"trinity/internal/compute/traversal"
	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
	"trinity/internal/rdf"
)

// newCloud boots a simulated cluster sized for benchmarking. Trunks are
// kept small (the figures measure committed bytes, not reserved
// capacity), so standing up and tearing down many clouds in one process
// stays cheap.
func newCloud(machines int) *memcloud.Cloud {
	return memcloud.New(memcloud.Config{
		Machines:      machines,
		TrunkCapacity: 4 << 20,
		TrunkPageSize: 8 << 10,
		Msg: msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   5 * time.Minute,
		},
		// All benchmark clouds share the process registry, so the
		// trinity-bench -metrics dump aggregates cumulatively over every
		// experiment. The tables themselves read per-engine snapshots
		// (e.g. bsp WireMessages), which are unaffected by the sharing.
		Metrics: obs.Default(),
	})
}

// loadSocial builds an undirected named social graph on a fresh cloud.
func loadSocial(ctx context.Context, machines, people, degree int, seed uint64) (*memcloud.Cloud, *graph.Graph, error) {
	cloud := newCloud(machines)
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: people, AvgDegree: degree, Seed: seed}, b)
	g, err := b.Load(ctx, cloud)
	return cloud, g, err
}

// loadRMAT builds a directed R-MAT graph on a fresh cloud.
func loadRMAT(ctx context.Context, machines int, scale uint, degree, labels int, seed uint64) (*memcloud.Cloud, *graph.Graph, error) {
	cloud := newCloud(machines)
	b := graph.NewBuilder(true)
	gen.BuildRMAT(gen.RMATConfig{Scale: scale, AvgDegree: degree, Seed: seed}, labels, b)
	g, err := b.Load(ctx, cloud)
	return cloud, g, err
}

// Fig12a reproduces Figure 12(a): people-search response time on a
// social graph as node degree sweeps, for 2-hop and 3-hop queries, on 8
// machines. Paper: 2-hop always < 10 ms; 3-hop at degree 130 ≈ 96 ms.
func Fig12a(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 12(a): People Search — response time vs node degree (8 machines)",
		Columns: []string{"degree", "2-hop", "3-hop"},
	}
	people := 4000 * s.factor()
	davidLabel := int64(hash.String("David"))
	for _, degree := range []int{10, 50, 90, 130, 170, 200} {
		cloud, g, err := loadSocial(ctx, 8, people, degree, uint64(degree))
		if err != nil {
			return nil, err
		}
		e := traversal.New(g)
		const queries = 5
		var d2, d3 time.Duration
		for q := 0; q < queries; q++ {
			start := uint64(q * 17 % people)
			d2 += Timed(func() { e.PeopleSearch(ctx, 0, start, davidLabel, 2) })
			d3 += Timed(func() { e.PeopleSearch(ctx, 0, start, davidLabel, 3) })
		}
		t.AddRow(degree, d2/queries, d3/queries)
		cloud.Close()
	}
	return t, nil
}

// Fig12b reproduces Figure 12(b): one PageRank iteration on R-MAT graphs
// as the node count sweeps, for several cluster sizes. Paper: 1B nodes,
// one iteration ≈ 1 minute on 8 machines; more machines help.
func Fig12b(ctx context.Context, s Scale) (*Table, error) {
	machinesSeries := []int{8, 10, 12, 14}
	t := &Table{
		Title:   "Figure 12(b): PageRank — seconds per iteration vs node count",
		Columns: append([]string{"nodes"}, colsFor(machinesSeries)...),
	}
	for _, scale := range rmatScales(s, 12) {
		row := []any{1 << scale}
		for _, machines := range machinesSeries {
			cloud, g, err := loadRMAT(ctx, machines, scale, 13, 0, uint64(scale))
			if err != nil {
				return nil, err
			}
			const iters = 3
			var res *algo.PageRankResult
			d := Timed(func() { res, err = algo.PageRank(ctx, g, iters, 8) })
			cloud.Close()
			if err != nil {
				return nil, err
			}
			_ = res
			row = append(row, d/iters)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig12c reproduces Figure 12(c): full BFS on the same R-MAT graphs.
// Paper: 1B nodes on 8 machines ≈ 1028 s, 14 machines ≈ 644 s.
func Fig12c(ctx context.Context, s Scale) (*Table, error) {
	machinesSeries := []int{8, 10, 12, 14}
	t := &Table{
		Title:   "Figure 12(c): Breadth-first Search — execution time vs node count",
		Columns: append([]string{"nodes"}, colsFor(machinesSeries)...),
	}
	for _, scale := range rmatScales(s, 12) {
		row := []any{1 << scale}
		for _, machines := range machinesSeries {
			cloud, g, err := loadRMAT(ctx, machines, scale, 13, 0, uint64(scale))
			if err != nil {
				return nil, err
			}
			var d time.Duration
			d = Timed(func() { _, err = algo.BFS(ctx, g, 0, 8) })
			cloud.Close()
			if err != nil {
				return nil, err
			}
			row = append(row, d)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig12d reproduces Figure 12(d): PageRank on the Giraph-style baseline.
// Paper: Giraph is slower than Trinity by two orders of magnitude and
// runs out of memory first.
func Fig12d(ctx context.Context, s Scale) (*Table, error) {
	machinesSeries := []int{4, 8, 16}
	t := &Table{
		Title:   "Figure 12(d): PageRank on Giraph-style baseline — time per iteration",
		Columns: append([]string{"nodes"}, colsFor(machinesSeries)...),
	}
	for _, scale := range rmatScales(s, 11) {
		adj := rmatAdjacency(scale, 13, uint64(scale))
		row := []any{1 << scale}
		for _, machines := range machinesSeries {
			e := giraph.New(machines, adj)
			const iters = 3
			d := Timed(func() { e.Run(&giraph.PageRank{Iterations: iters}, iters+2) })
			e.Close()
			row = append(row, d/iters)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig13 reproduces Figure 13: BFS execution time and memory usage for the
// PBGL-style ghost-cell baseline vs Trinity, sweeping node count and
// average degree on 16 machines. Paper: Trinity ~10x faster with ~10x
// less memory; PBGL's ghosts blow up on high degrees.
func Fig13(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title: "Figure 13: BFS in PBGL-style baseline vs Trinity (16 machines)",
		Columns: []string{"nodes", "avg deg", "PBGL time", "Trinity time",
			"PBGL mem (MB)", "Trinity mem (MB)", "ghosts/vertex"},
	}
	for _, scale := range rmatScales(s, 10) {
		for _, degree := range []int{4, 8, 16, 32} {
			adj := rmatAdjacency(scale, degree, uint64(scale*31+uint(degree)))

			pe := pbgl.New(16, adj)
			pbglMem := pe.MemoryFootprint()
			var pbglTime time.Duration
			pbglTime = Timed(func() { pe.BFS(0) })
			ghostsPerVertex := float64(pe.GhostCount()) / float64(pe.VertexCount())
			pe.Close()

			cloud, g, err := loadRMAT(ctx, 16, scale, degree, 0, uint64(scale*31+uint(degree)))
			if err != nil {
				return nil, err
			}
			trinityMem := cloud.MemoryUsage()
			var trinityTime time.Duration
			trinityTime = Timed(func() { _, err = algo.BFS(ctx, g, 0, 8) })
			cloud.Close()
			if err != nil {
				return nil, err
			}
			t.AddRow(1<<scale, degree, pbglTime, trinityTime,
				float64(pbglMem)/(1<<20), float64(trinityMem)/(1<<20),
				ghostsPerVertex)
		}
	}
	return t, nil
}

// Fig8a reproduces Figure 8(a): subgraph matching time vs graph size for
// DFS- and RANDOM-generated 10-node queries, avg degree 16, 8 machines.
// Paper: ~1 second per query at 128M nodes with no structural index.
func Fig8a(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 8(a): Subgraph matching — query time vs node count (8 machines)",
		Columns: []string{"nodes", "DFS queries", "RANDOM queries"},
	}
	const labels = 20
	querySize := 10
	for _, scale := range rmatScales(s, 11) {
		cloud, g, err := loadRMAT(ctx, 8, scale, 16, labels, uint64(scale))
		if err != nil {
			return nil, err
		}
		mt := algo.NewMatcher(g)
		row := []any{1 << scale}
		for _, mode := range []algo.QueryGenMode{algo.GenDFS, algo.GenRandom} {
			const queries = 3
			var total time.Duration
			ran := 0
			for q := 0; q < queries; q++ {
				p, err := algo.GenerateQuery(g, querySize, mode, uint64(q+1))
				if err != nil {
					continue // rare dead-end walks at tiny scales
				}
				total += Timed(func() { mt.MatchBudget(ctx, 0, p, 1, 500_000) })
				ran++
			}
			if ran == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, total/time.Duration(ran))
			}
		}
		t.AddRow(row...)
		cloud.Close()
	}
	return t, nil
}

// Fig8b reproduces Figure 8(b): distance-oracle estimation accuracy vs
// landmark count for the three selection strategies. Paper: global
// betweenness best, local betweenness within a whisker of it, largest
// degree worst.
func Fig8b(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 8(b): Distance oracle — estimation accuracy (%) vs #landmarks",
		Columns: []string{"landmarks", "LargestDegree", "LocalBetweenness", "GlobalBetweenness"},
	}
	// A community-structured graph: betweenness finds the bridges between
	// communities, degree only finds in-community hubs (the regime the
	// paper's real social graphs exhibit).
	cloud := newCloud(8)
	defer cloud.Close()
	bld := graph.NewBuilder(false)
	gen.BuildClustered(gen.ClusteredConfig{
		Communities:        40 * s.factor(),
		PeoplePerCommunity: 40,
		IntraDegree:        6,
		Ring:               true,
		Bridges:            2 * s.factor(),
		DenseSatellites:    6 * s.factor(),
		Seed:               77,
	}, bld)
	g, err := bld.Load(ctx, cloud)
	if err != nil {
		return nil, err
	}
	for _, k := range []int{20, 40, 60, 80, 100} {
		row := []any{k}
		for _, strat := range []algo.LandmarkStrategy{algo.ByDegree, algo.ByLocalBetweenness, algo.ByGlobalBetweenness} {
			o, err := algo.BuildOracle(ctx, g, k, strat, 5)
			if err != nil {
				return nil, err
			}
			acc, err := o.Accuracy(ctx, 64, 9)
			if err != nil {
				return nil, err
			}
			row = append(row, acc)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig14a reproduces Figure 14(a): subgraph-matching parallel speedup on
// the Wordnet-like and patent-like graphs as machines increase.
func Fig14a(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 14(a): Subgraph match query time vs machine count",
		Columns: []string{"machines", "Wordnet-like", "Patent-like"},
	}
	nodes := 16000 * s.factor()
	type load struct {
		name  string
		build func(*graph.Builder)
	}
	loads := []load{
		{"wordnet", func(b *graph.Builder) { gen.BuildWordnetLike(nodes, 3, b) }},
		{"patent", func(b *graph.Builder) { gen.BuildPatentLike(nodes, 4, b) }},
	}
	for _, machines := range []int{1, 2, 4, 8} {
		row := []any{machines}
		for _, l := range loads {
			cloud := newCloud(machines)
			b := graph.NewBuilder(true)
			l.build(b)
			g, err := b.Load(ctx, cloud)
			if err != nil {
				return nil, err
			}
			mt := algo.NewMatcher(g)
			const queries = 3
			var total time.Duration
			ran := 0
			for q := 0; q < queries; q++ {
				p, err := algo.GenerateQuery(g, 7, algo.GenDFS, uint64(q+11))
				if err != nil {
					continue
				}
				// Enumerate many embeddings so per-query work dwarfs
				// round-trip overhead, as with the paper's full queries.
				total += Timed(func() { mt.MatchBudget(ctx, 0, p, 2000, 2_000_000) })
				ran++
			}
			if ran == 0 {
				row = append(row, "n/a")
			} else {
				row = append(row, total/time.Duration(ran))
			}
			cloud.Close()
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig14b reproduces Figure 14(b): the four LUBM-style SPARQL queries as
// machine count sweeps.
func Fig14b(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 14(b): SPARQL query time vs machine count (LUBM-style data)",
		Columns: []string{"machines", "Q1", "Q3", "Q5", "Q7"},
	}
	universities := 3 * s.factor()
	for _, machines := range []int{1, 2, 4, 8} {
		cloud := newCloud(machines)
		store := rdf.NewStore(cloud)
		if _, err := rdf.GenerateLUBM(ctx, store, rdf.LUBMConfig{Universities: universities, Seed: 6}); err != nil {
			return nil, err
		}
		queries := []*rdf.Query{
			rdf.QueryStudentsTakingCourse("http://univ0/dept0/course1"),
			rdf.QueryProfessorsOfUniversity("http://univ0"),
			rdf.QueryMembersWithDegreeFrom("http://univ0/dept0", "http://univ1"),
			rdf.QueryStudentsOfTeacher("http://univ0/dept0/prof0"),
		}
		row := []any{machines}
		for _, q := range queries {
			var err error
			d := Timed(func() { _, err = store.Execute(ctx, q) })
			if err != nil {
				return nil, err
			}
			row = append(row, d)
		}
		t.AddRow(row...)
		cloud.Close()
	}
	return t, nil
}

// ThreeHop reproduces the §5.1 headline claim: exploring the entire 3-hop
// neighborhood of a node in a power-law social graph on 8 machines takes
// ~100 ms at Facebook scale (here, scaled down).
func ThreeHop(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "§5.1: full 3-hop neighborhood exploration (8 machines, power-law, deg 13)",
		Columns: []string{"people", "avg time", "avg nodes visited"},
	}
	people := 10000 * s.factor()
	cloud, g, err := loadSocial(ctx, 8, people, 13, 21)
	if err != nil {
		return nil, err
	}
	defer cloud.Close()
	e := traversal.New(g)
	const queries = 10
	var total time.Duration
	visited := 0
	for q := 0; q < queries; q++ {
		start := uint64(q * 997 % people)
		var n int
		total += Timed(func() { n, err = e.KHopNeighborhoodSize(ctx, 0, start, 3) })
		if err != nil {
			return nil, err
		}
		visited += n
	}
	t.AddRow(people, total/queries, visited/queries)
	return t, nil
}

// MsgOptAblation quantifies the §5.4 hub-vertex buffering: wire messages
// and time for one PageRank run with the optimization off and on.
func MsgOptAblation(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "§5.4 ablation: hub-vertex buffering (PageRank, R-MAT, 8 machines)",
		Columns: []string{"hub threshold", "wire messages", "time"},
	}
	scale := uint(11 + intLog2(s.factor()))
	for _, hub := range []int{0, 16, 8, 4} {
		cloud, g, err := loadRMAT(ctx, 8, scale, 13, 0, 3)
		if err != nil {
			return nil, err
		}
		var wire int64
		d := Timed(func() {
			res, err2 := algo.PageRankInstrumented(ctx, g, 3, hub)
			if err2 != nil {
				err = err2
				return
			}
			wire = res.WireMessages
		})
		cloud.Close()
		if err != nil {
			return nil, err
		}
		label := fmt.Sprint(hub)
		if hub == 0 {
			label = "off"
		}
		t.AddRow(label, wire, d)
	}
	return t, nil
}

// BulkLoad quantifies the batched write pipeline in its three regimes:
// an owner-partitioned in-place load (graph.Builder.Flush), the same load
// with buffered logging (where WAL group commit collapses one TFS append
// per cell into one per batch), and an ingest through a single access
// point (every cell streamed from slave 0, where multi-put batching
// collapses one sync round trip per cell into one per batch). The
// owner-partitioned rows report the pipelined load alone — its time, the
// storage ops it applied and the multi-put batches that carried them; the
// single-access-point row also times the live alternative, a synchronous
// Slave.Put per cell, with sync storage calls counted from a private
// registry.
func BulkLoad(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:   "Batched write pipeline: bulk load per-cell vs multi-put (8 machines)",
		Columns: []string{"scenario", "cells", "per-cell", "pipelined", "speedup", "sync calls", "batches", "reduction"},
	}
	people := 30000 * s.factor()

	// Owner-partitioned flush, with and without buffered logging.
	for _, logged := range []bool{false, true} {
		reg := obs.NewRegistry()
		cloud := newCloudOn(8, logged, reg)
		g := graph.New(cloud, false)
		b := graph.NewBuilder(false)
		gen.BuildSocial(gen.SocialConfig{People: people, AvgDegree: 13, Seed: uint64(people)}, b)
		cells := b.NodeCount()
		var err error
		pipelined := Timed(func() { err = b.Flush(ctx, g) })
		cloud.Close()
		if err != nil {
			return nil, err
		}
		name := "owner-partitioned flush"
		if logged {
			name += " + WAL"
		}
		if err := addLoadRow(t, name, cells, 0, pipelined, reg, reg); err != nil {
			return nil, err
		}
	}

	// Single access point: every cell written from slave 0 (7/8 remote).
	cells := make([][]byte, people)
	for i := range cells {
		v := make([]byte, 120)
		for j := range v {
			v[j] = byte(i) + byte(j)
		}
		cells[i] = v
	}
	regBase := obs.NewRegistry()
	cloudBase := newCloudOn(8, false, regBase)
	s0 := cloudBase.Slave(0)
	var err error
	perCell := Timed(func() {
		for k, v := range cells {
			if err = s0.Put(ctx, uint64(k), v); err != nil {
				return
			}
		}
	})
	cloudBase.Close()
	if err != nil {
		return nil, err
	}

	regPipe := obs.NewRegistry()
	cloudPipe := newCloudOn(8, false, regPipe)
	w := store.New(cloudPipe.Slave(0), store.Options{Metrics: regPipe})
	pipelined := Timed(func() {
		for k, v := range cells {
			w.PutAsync(uint64(k), v)
		}
		err = w.Drain(ctx)
	})
	w.Close()
	cloudPipe.Close()
	if err != nil {
		return nil, err
	}
	if err := addLoadRow(t, "single access point", people, perCell, pipelined, regBase, regPipe); err != nil {
		return nil, err
	}
	return t, nil
}

// addLoadRow derives the sync-call ablation for one bulk-load scenario:
// per-cell storage calls (counted in regBase) vs the pipeline's batch
// count (in regPipe). perCell == 0 means the scenario has no per-cell run
// to compare against.
func addLoadRow(t *Table, name string, cells int, perCell, pipelined time.Duration, regBase, regPipe *obs.Registry) error {
	syncCalls := sumCounters(regBase, ".local_ops") + sumCounters(regBase, ".remote_ops")
	batches := sumCounters(regPipe, ".multiput_batches")
	if batches == 0 {
		return fmt.Errorf("bench: %s recorded no multi-put batches", name)
	}
	var base, speedup any = "—", "—"
	if perCell > 0 {
		base, speedup = perCell, fmt.Sprintf("%.1fx", float64(perCell)/float64(pipelined))
	}
	t.AddRow(name, cells, base, pipelined, speedup,
		syncCalls, batches,
		fmt.Sprintf("%.0fx", float64(syncCalls)/float64(batches)))
	return nil
}

// newCloudOn is newCloud with a caller-chosen registry (for experiments
// that count their own traffic instead of sharing the process registry)
// and optional buffered logging.
func newCloudOn(machines int, logged bool, reg *obs.Registry) *memcloud.Cloud {
	return memcloud.New(memcloud.Config{
		Machines:        machines,
		TrunkCapacity:   4 << 20,
		TrunkPageSize:   8 << 10,
		BufferedLogging: logged,
		Msg: msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   5 * time.Minute,
		},
		Metrics: reg,
	})
}

// sumCounters totals every counter in reg whose name ends in suffix.
func sumCounters(reg *obs.Registry, suffix string) int64 {
	var total int64
	for _, v := range reg.Snapshot() {
		if v.Kind == "counter" && strings.HasSuffix(v.Name, suffix) {
			total += v.Int
		}
	}
	return total
}

// --- helpers ---

// rmatScales returns the node-count exponents for a sweep: four sizes
// doubling from base, shifted up by the scale factor.
func rmatScales(s Scale, base uint) []uint {
	shift := uint(intLog2(s.factor()))
	return []uint{base + shift, base + 1 + shift, base + 2 + shift, base + 3 + shift}
}

func intLog2(x int) int {
	n := 0
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

func colsFor(machines []int) []string {
	out := make([]string, len(machines))
	for i, m := range machines {
		out[i] = fmt.Sprintf("%d machines", m)
	}
	return out
}

// rmatAdjacency materializes an R-MAT graph as a plain adjacency map for
// the baseline engines (which do not run on the memory cloud).
func rmatAdjacency(scale uint, degree int, seed uint64) map[uint64][]uint64 {
	adj := make(map[uint64][]uint64, 1<<scale)
	gen.RMAT(gen.RMATConfig{Scale: scale, AvgDegree: degree, Seed: seed}, func(u, v uint64) {
		adj[u] = append(adj[u], v)
	})
	for i := uint64(0); i < 1<<scale; i++ {
		if _, ok := adj[i]; !ok {
			adj[i] = nil
		}
	}
	return adj
}
