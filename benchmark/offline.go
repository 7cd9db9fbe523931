package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"trinity/internal/algo"
	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// offline_job: the library-linked workload. It hosts a 4-machine cloud in
// this process the way cmd/trinity-bench does, because bulk ingest, the
// fetch and store pipelines, BSP and failover cannot be reached through
// the daemon's line protocol.

// offlineConfig is the cloud every offline phase runs on.
func offlineConfig(reg *obs.Registry) memcloud.Config {
	return memcloud.Config{
		Machines:        machines,
		BufferedLogging: true,
		TrunkCapacity:   16 << 20,
		Metrics:         reg,
	}
}

// offlineBudget splits -seconds among the job's phases. Set-up (cloud
// start and graph load, repeated) comes on top, as it does for serving.
type offlineBudget struct{ ingest, pagerank, bfs, explore time.Duration }

func newOfflineBudget(seconds float64) offlineBudget {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	return offlineBudget{ingest: d(0.40), pagerank: d(0.30), bfs: d(0.10), explore: d(0.20)}
}

// Repetition floors: a phase repeats until its time share is used, but
// never fewer than this many times.
const (
	minIngestReps    = 3
	minWarmPageRanks = 1
	minBFSSources    = 5
	minExplores      = 5
)

func runOffline(sp *spec, env *runEnv) (*result, error) {
	res := newResult(sp.name, env.seed, env.traced)
	ctx := context.Background()
	b := newOfflineBudget(env.seconds)
	r := newRNG(env.seed ^ fnvAdd(fnvOffset, []byte(sp.name)))
	tr := env.tracer
	leasesAtStart := leasesOut()
	work := counters{} // registry activity of every timed phase, for the traced run's counts

	// Inputs.
	// Cell sizes spread a quarter either side of cellSize, so that the
	// bytes stored, like everything else, follow from the seed.
	total := sp.ingestCells + sp.lateWrites
	want := make([][]byte, total)
	arena := make([]byte, 0, total*sp.cellSize*5/4)
	sizes := r.split(2)
	for k := range want {
		at := len(arena)
		arena = appendValue(arena, env.seed, uint64(k), 1, sp.cellSize*3/4+sizes.intn(sp.cellSize/2+1))
		want[k] = arena[at:len(arena):len(arena)]
	}
	edges := rmatEdges(r.split(1), sp.rmatScale, sp.rmatDegree)
	nodes := 1 << sp.rmatScale
	model := newGraphModel(nodes, edges) // the sequential reference
	ref := model.base

	// Set-up of the analytics cloud: start it and load the graph, several
	// times; the last one is kept.
	reps := setupReps
	if env.traced || env.smoke {
		reps = 1
	}
	var cloud *memcloud.Cloud
	var g *graph.Graph
	var setupS []float64
	reg := obs.Default()
	for i := 0; i < reps; i++ {
		bld := graph.NewBuilder(true)
		for v := 0; v < nodes; v++ {
			bld.AddNode(uint64(v), 0, "")
		}
		for _, e := range edges {
			bld.AddEdge(uint64(e.src), uint64(e.dst))
		}
		if cloud != nil {
			cloud.Close()
		}
		begin := time.Now()
		var err error
		tr.call("graph.Builder.Load", 0, 0, func(int64) {
			cloud = memcloud.New(offlineConfig(reg))
			g, err = bld.Load(ctx, cloud)
		})
		if err != nil {
			cloud.Close()
			return nil, fmt.Errorf("load graph: %w", err)
		}
		setupS = append(setupS, time.Since(begin).Seconds())
		logf("set-up %d: %.3fs", i, setupS[i])
	}
	defer cloud.Close()
	res.setFrom("setup_s", "s", setupS)
	res.require(g.NodeCount() == nodes, "graph has %d nodes, want %d", g.NodeCount(), nodes)
	res.require(g.EdgeCount() == len(edges), "graph has %d edges, want %d", g.EdgeCount(), len(edges))
	before := snapshot(reg)
	runtime.GC() // drop the builders and the discarded clouds before timing

	// PageRank: the first run builds the partition views, the rest reuse
	// them; only warm runs are scored.
	var stepMs, edgesPerS []float64
	var ranks map[uint64]float64
	phaseEnd := time.Now().Add(b.pagerank)
	for run := 0; run == 0 || len(stepMs) < minWarmPageRanks || time.Now().Before(phaseEnd); run++ {
		begin := time.Now()
		var pr *algo.PageRankResult
		var err error
		tr.call("bsp.PageRank", 0, int64(run), func(int64) { pr, err = algo.PageRank(ctx, g, sp.prIterations, 0) })
		if err != nil {
			return nil, fmt.Errorf("pagerank: %w", err)
		}
		took := time.Since(begin)
		logf("pagerank run %d: %v, %d supersteps", run, took, pr.Supersteps)
		ranks = pr.Ranks
		if run == 0 {
			if env.traced {
				res.set("view.first_pagerank_ms", "ms", float64(took)/1e6, 1, 0)
			}
			if !env.smoke {
				continue
			}
		}
		perStep := took.Seconds() / float64(pr.Supersteps)
		stepMs = append(stepMs, perStep*1e3)
		edgesPerS = append(edgesPerS, float64(len(edges))/perStep)
		if env.smoke {
			break
		}
	}
	res.setFrom("pagerank_superstep_ms", "ms", stepMs)
	res.setFrom("pagerank_edges_s", "ops/s", edgesPerS)
	checkPageRank(res, ref, ranks, sp.prIterations)

	// BFS from a few sources that have somewhere to go.
	var bfsMs []float64
	phaseEnd = time.Now().Add(b.bfs)
	for len(bfsMs) < minBFSSources || (time.Now().Before(phaseEnd) && !env.smoke) {
		src := uint32(r.intn(nodes))
		if len(ref.out(src)) == 0 {
			continue
		}
		begin := time.Now()
		var out *algo.BFSResult
		var err error
		tr.call("bsp.BFS", 0, int64(len(bfsMs)), func(int64) { out, err = algo.BFS(ctx, g, uint64(src), 0) })
		if err != nil {
			return nil, fmt.Errorf("bfs: %w", err)
		}
		bfsMs = append(bfsMs, float64(time.Since(begin))/1e6)
		checkBFS(res, ref, src, out.Levels)
		if env.smoke && len(bfsMs) == 2 {
			break
		}
	}
	res.setFrom("bfs_ms", "ms", bfsMs)

	// 3-hop exploration over raw cells through the fetch pipeline.
	eng := traversal.New(g)
	var exploreMs []float64
	phaseEnd = time.Now().Add(b.explore)
	for len(exploreMs) < minExplores || (time.Now().Before(phaseEnd) && !env.smoke) {
		// Start from well-connected nodes, so that every query reaches the
		// graph's core and the queries of different seeds are comparable.
		start := uint32(r.intn(nodes))
		if len(ref.out(start)) < sp.rmatDegree {
			continue
		}
		begin := time.Now()
		var out *traversal.Result
		var err error
		tr.call("traversal.ExploreCells", 0, int64(len(exploreMs)), func(int64) {
			out, err = eng.ExploreCells(ctx, 0, uint64(start), 3, traversal.Predicate{})
		})
		if err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		exploreMs = append(exploreMs, float64(time.Since(begin))/1e6)
		wantN := model.khop(start, 3)
		res.require(out.Visited == wantN, "ExploreCells(%d, 3) visited %d, reference %d", start, out.Visited, wantN)
	}
	res.setFrom("explore3_ms", "ms", exploreMs)

	// Nothing may have failed over while no machine was being killed.
	delta := snapshot(reg).sub(before)
	res.require(delta.total("memcloud", "recoveries") == 0,
		"memcloud.recoveries = %v during analytics with no machine killed", delta.total("memcloud", "recoveries"))
	// Every reply has been consumed, so no lease may still be out. (After
	// the kills below some are: a killed machine strands the frames queued
	// for it, which is why this is checked here and not at the end.)
	inuse, _ := settledInUse(func() (float64, error) { return leasesOut() - leasesAtStart, nil })
	res.require(inuse == 0, "buf.inuse = %v after the analytics phases", inuse)
	if env.traced {
		res.set("buf.inuse_end", "count", inuse, 1, 0)
	}

	// Ingest and recover, each repetition on a fresh cloud. This comes
	// last because every repetition leaves some 350 MB of dead WAL copies
	// behind, and the analytics phases ran up to 60 % slower after it.
	after := snapshot(reg)
	cloud.Close()
	runtime.GC()
	var ingestRate, cpuPerCell, spaceRatio, recoverS, walAmp []float64
	phaseEnd = time.Now().Add(b.ingest)
	for rep := 0; rep < minIngestReps || time.Now().Before(phaseEnd); rep++ {
		if env.smoke && rep == 1 {
			break
		}
		o, err := ingestAndRecover(ctx, sp, want, tr, res)
		if err != nil {
			return nil, err
		}
		ingestRate = append(ingestRate, o.cellsPerS)
		cpuPerCell = append(cpuPerCell, o.cpuUsPerCell)
		spaceRatio = append(spaceRatio, o.spaceRatio)
		recoverS = append(recoverS, o.recoverS)
		walAmp = append(walAmp, o.tfsWriteAmp)
		work.add(o.work)
		logf("ingest+recover %d: %.0f cells/s, recover %.3fs", rep, o.cellsPerS, o.recoverS)
	}
	res.setFrom("ingest_cells_s", "cells/s", ingestRate)
	res.setFrom("cpu_us_per_op", "us", cpuPerCell)
	res.setFrom("store_bytes_per_user_byte", "ratio", spaceRatio)
	res.setFrom("recover_s", "s", recoverS)
	if env.traced {
		res.setFrom("tfs.write_amp", "ratio", walAmp)
	}

	if env.traced {
		work.add(delta)
		countMetrics(res, work, after, float64(len(stepMs)+1+len(bfsMs)+len(exploreMs)))
		userBytes := 0.0
		for _, v := range want {
			userBytes += float64(8 + len(v))
		}
		reps := float64(len(ingestRate))
		walMetrics(res, work, reps*float64(len(want)), reps*userBytes)
	}
	res.set("fail_share", "ratio", float64(res.failed)/float64(res.attempted), int(res.attempted), 0)
	return res, nil
}

// ingestOutcome is one repetition of the ingest-and-recover phase.
type ingestOutcome struct {
	cellsPerS, cpuUsPerCell, spaceRatio, recoverS, tfsWriteAmp float64
	work                                                       counters // the repetition's registry, which started empty
}

// ingestAndRecover streams the cells through store.Writer on Slave(0)
// with the WAL on, backs the cloud up, acknowledges more writes that only
// the WAL holds, kills machine 3 and times how long it takes until every
// acknowledged cell reads back equal.
func ingestAndRecover(ctx context.Context, sp *spec, want [][]byte, tr *tracer, res *result) (ingestOutcome, error) {
	var o ingestOutcome
	reg := obs.NewRegistry()
	cloud := memcloud.New(offlineConfig(reg))
	defer cloud.Close()
	w := store.New(cloud.Slave(0), store.Options{Metrics: reg})
	defer w.Close()

	cpu0 := selfCPUSeconds()
	begin := time.Now()
	var err error
	tr.call("store.Writer", 0, 0, func(int64) {
		for k := 0; k < sp.ingestCells; k++ {
			w.PutAsync(uint64(k), want[k])
		}
		err = w.Drain(ctx)
	})
	took := time.Since(begin)
	res.require(err == nil, "ingest: %v", err)
	o.cellsPerS = float64(sp.ingestCells) / took.Seconds()
	o.cpuUsPerCell = (selfCPUSeconds() - cpu0) * 1e6 / float64(sp.ingestCells)
	userBytes := 0.0
	for _, v := range want[:sp.ingestCells] {
		userBytes += float64(8 + len(v))
	}
	o.spaceRatio = float64(cloud.MemoryUsage()) / userBytes
	o.tfsWriteAmp = float64(cloud.FS().Stats().BytesWritten) / userBytes

	tr.call("tfs.Backup", 0, 0, func(int64) { err = cloud.Backup() })
	if err != nil {
		return o, fmt.Errorf("backup: %w", err)
	}
	for k := sp.ingestCells; k < len(want); k++ {
		w.PutAsync(uint64(k), want[k])
	}
	res.require(w.Drain(ctx) == nil, "late writes were not all acknowledged")
	res.require(cloud.Stats().Recoveries == 0, "memcloud.recoveries = %d before the kill", cloud.Stats().Recoveries)

	// Kill, then read everything back until it is all there. A read that
	// fails or returns stale bytes is simply tried again: what is timed is
	// how long the cloud takes to be whole, not how the first reads fare.
	f := fetch.New(cloud.Slave(0), fetch.Options{Metrics: reg})
	defer f.Close()
	pending := make([]uint64, len(want))
	for k := range pending {
		pending[k] = uint64(k)
	}
	id := tr.begin("cluster.recover", 0, 0)
	begin = time.Now()
	cloud.KillMachine(msg.MachineID(machines - 1))
	for deadline := begin.Add(60 * time.Second); len(pending) > 0 && time.Now().Before(deadline); {
		var again []uint64
		f.GetBatch(ctx, pending, func(_ int, key uint64, val []byte, err error) {
			if err != nil || !bytes.Equal(val, want[key]) {
				again = append(again, key)
			}
		})
		pending = again
	}
	o.recoverS = time.Since(begin).Seconds()
	tr.end(id)
	res.attempted += int64(len(want))
	if len(pending) > 0 {
		res.failed += int64(len(pending))
		res.fail("%d acknowledged cells not readable 60s after the kill", len(pending))
	}
	res.require(cloud.Stats().Recoveries > 0, "no trunk was recovered after the kill")
	o.work = snapshot(reg)
	return o, nil
}

// checkPageRank compares ranks with a sequential power iteration that
// mirrors the vertex program: every vertex starts at 1 and each of iters
// rounds sets rank = 0.15 + 0.85 * sum over in-edges of rank/outdegree,
// parallel edges counted as often as they occur.
func checkPageRank(res *result, g *csr, got map[uint64]float64, iters int) {
	n := g.nodes()
	cur, next := make([]float64, n), make([]float64, n)
	for i := range cur {
		cur[i] = 1
	}
	for it := 0; it < iters; it++ {
		for i := range next {
			next[i] = 0
		}
		for v := 0; v < n; v++ {
			out := g.out(uint32(v))
			if len(out) == 0 {
				continue
			}
			share := cur[v] / float64(len(out))
			for _, d := range out {
				next[d] += share
			}
		}
		for i := range next {
			next[i] = 0.15 + 0.85*next[i]
		}
		cur, next = next, cur
	}
	bad, worst := 0, 0.0
	for v := 0; v < n; v++ {
		diff := math.Abs(got[uint64(v)] - cur[v])
		if tol := 1e-6 * math.Max(1, math.Abs(cur[v])); diff > tol {
			bad++
			worst = math.Max(worst, diff)
		}
	}
	res.attempted += int64(n)
	if len(got) != n {
		res.fail("PageRank ranked %d vertices, want %d", len(got), n)
	}
	if bad > 0 {
		res.failed += int64(bad)
		res.fail("PageRank: %d ranks differ from the sequential reference (worst by %g)", bad, worst)
	}
}

// checkBFS compares hop distances with a sequential queue BFS.
func checkBFS(res *result, g *csr, src uint32, got map[uint64]float64) {
	n := g.nodes()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []uint32{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, d := range g.out(v) {
			if level[d] < 0 {
				level[d] = level[v] + 1
				queue = append(queue, d)
			}
		}
	}
	bad := 0
	for v := 0; v < n; v++ {
		if l, ok := got[uint64(v)]; !ok || l != float64(level[v]) {
			bad++
		}
	}
	res.attempted += int64(n)
	if bad > 0 {
		res.failed += int64(bad)
		res.fail("BFS from %d: %d levels differ from the sequential reference", src, bad)
	}
}

// leasesOut is this process's buf.inuse gauge.
func leasesOut() float64 { return snapshot(obs.Default())["buf.inuse"] }

// snapshot flattens an in-process registry the way scrape flattens the
// daemon's.
func snapshot(reg *obs.Registry) counters {
	out := counters{}
	for _, v := range reg.Snapshot() {
		switch {
		case v.Kind == "histogram":
			out[v.Name+".count"] = float64(v.Hist.Count)
			out[v.Name+".sum"] = float64(v.Hist.Sum)
			out[v.Name+".p99"] = float64(v.Hist.Quantile(0.99))
			out[v.Name+".max"] = float64(v.Hist.Max)
		case v.IsFloat:
			out[v.Name] = v.Float
		default:
			out[v.Name] = float64(v.Int)
		}
	}
	return out
}
