package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"trinity/internal/algo"
	"trinity/internal/buf"
	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
	"trinity/internal/tfs"
	"trinity/internal/trunk"
)

// The per-layer side of the benchmark. Three sources:
//
//   - probes: the same fixed-size operation timed at every depth of the
//     stack, in this process, through each layer's public functions. They
//     do not depend on the workload; they say what one call costs.
//   - counts: obs registry deltas taken around the workload's timed
//     phases (scraped from the daemon, or read in-process for
//     offline_job), divided by client operations. They say how much work
//     the workload asked of a layer; a layer it does not touch reports 0.
//   - the load generator's own figures.
//
// README.md says which end-to-end metric each of these should move.

var perLayer = []metricDef{
	// trunk
	{"trunk.read_ns", "ns", false},
	{"trunk.put_ns", "ns", false},
	{"trunk.append_ns", "ns", false},
	{"trunk.putbatch_ns_per_cell", "ns", false},
	{"trunk.read_scaling_x", "ratio", true},
	{"trunk.defrag_ns_total", "ns", false},
	{"trunk.defrag_reclaimed_bytes", "bytes", false},
	{"trunk.load_factor", "ratio", true},
	{"trunk.gap_bytes", "bytes", false},
	// buf
	{"buf.get_release_ns", "ns", false},
	{"buf.miss_ratio", "ratio", false},
	{"buf.inuse_end", "count", false},
	// msg
	{"msg.call_bus_ns", "ns", false},
	{"msg.call_tcp_ns", "ns", false},
	{"msg.call_scaling_x", "ratio", true},
	{"msg.calls_per_op", "1/op", false},
	{"msg.frames_per_op", "1/op", false},
	{"msg.bytes_per_op", "bytes/op", false},
	{"msg.dropped_frames", "count", false},
	{"msg.calls_cancelled", "count", false},
	{"msg.deadline_dropped_rx", "count", false},
	// memcloud
	{"memcloud.localget_ns", "ns", false},
	{"memcloud.get_local_ns", "ns", false},
	{"memcloud.get_remote_ns", "ns", false},
	{"memcloud.put_remote_ns", "ns", false},
	{"memcloud.append_remote_ns", "ns", false},
	{"memcloud.remote_share", "ratio", false},
	{"memcloud.retries", "count", false},
	{"memcloud.recoveries", "count", false},
	{"memcloud.multiget_keys_per_batch", "count", true},
	{"memcloud.multiput_keys_per_batch", "count", true},
	// memcloud/fetch
	{"fetch.getbatch_ns_per_key", "ns", false},
	{"fetch.batch_size_mean", "count", true},
	{"fetch.round_trips_saved", "count", true},
	{"fetch.coalesce_hits", "count", true},
	{"fetch.retries", "count", false},
	// memcloud/store
	{"store.put_ns_per_cell", "ns", false},
	{"store.batch_size_mean", "count", true},
	{"store.coalesce_hits", "count", true},
	{"store.retries", "count", false},
	// tfs and the WAL
	{"tfs.append_ns", "ns", false},
	{"tfs.write_amp", "ratio", false},
	{"tfs.backup_ns_per_mb", "ns", false},
	{"wal.group_commits_per_kcell", "count", false},
	{"wal.bytes_per_user_byte", "ratio", false},
	// cluster
	{"cluster.failover_ns", "ns", false},
	{"cluster.heartbeat_p99_ns", "ns", false},
	{"cluster.table_cas_retries", "count", false},
	// graph
	{"graph.getnode_ns", "ns", false},
	{"graph.addedge_ns", "ns", false},
	{"graph.encode_ns", "ns", false},
	// graph/view
	{"view.build_ns_per_edge", "ns", false},
	{"view.builds", "count", false},
	{"view.cache_hit_ratio", "ratio", true},
	{"view.first_pagerank_ms", "ms", false},
	// compute/traversal
	{"traversal.explore_ns", "ns", false},
	{"traversal.explorecells_ns", "ns", false},
	{"traversal.expansions_per_query", "count", false},
	// compute/bsp
	{"bsp.superstep_compute_ns", "ns", false},
	{"bsp.superstep_barrier_ns", "ns", false},
	{"bsp.wire_msgs_per_superstep", "count", false},
	{"bsp.combined_ratio", "ratio", true},
	{"bsp.allocs_per_superstep", "count", false},
	{"bsp.bytes_per_superstep", "bytes", false},
	// cmd/trinityd and the process
	{"trinityd.noop_rtt_ns", "ns", false},
	{"proc.rss_peak_mb", "MB", false},
	{"proc.gc_pause_ms", "ms", false},
	{"proc.build_s", "s", false},
	// the load generator
	{"loadgen.late_p99_us", "us", false},
	{"loadgen.cpu_share", "ratio", false},
	{"loadgen.max_rate_ok_ops_s", "ops/s", true},
	{"loadgen.lat_p999_us", "us", false},
	{"loadgen.lat_p99_us_r1", "us", false},
	{"loadgen.lat_p99_us_r2", "us", false},
	{"loadgen.lat_p99_us_r3", "us", false},
	{"loadgen.lat_p99_us_r4", "us", false},
	// the traced replay
	{"trace.replay_ns_per_op", "ns", false},
	{"trace.overhead_share", "ratio", false},
}

const cellBytes = 128 // the fixed cell size of every probe

// timeOp returns the median ns per call of fn over three timed batches of
// n calls, after one untimed batch, and records each timed batch as a
// span named name.
func timeOp(tr *tracer, parent int64, name string, n int, fn func(i int)) float64 {
	for i := 0; i < n/4+1; i++ {
		fn(i)
	}
	var per []float64
	for b := 0; b < 3; b++ {
		id := tr.begin(name, parent, int64(b))
		begin := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(begin))/float64(n))
		tr.end(id)
	}
	return median(per)
}

// scaling returns ops/s with one goroutine per processor over ops/s with
// one goroutine.
func scaling(n int, fn func(worker, i int)) float64 {
	rate := func(workers int) float64 {
		var wg sync.WaitGroup
		begin := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					fn(w, i)
				}
			}(w)
		}
		wg.Wait()
		return float64(workers*n) / time.Since(begin).Seconds()
	}
	one := rate(1)
	return rate(runtime.NumCPU()) / one
}

func nsSet(res *result, name string, v float64) { res.set(name, "ns", math.Max(v, 0), 3, 0) }

// runProbes times the ladder. Any failure here is a broken layer, not a
// slow one, so it is returned as an error.
func runProbes(env *runEnv, res *result) error {
	ctx := context.Background()
	tr := env.tracer
	root := tr.begin("probe.ladder", 0, 0)
	defer tr.end(root)
	payload := appendValue(nil, env.seed, 0, 0, cellBytes)
	chunk := payload[:chunkSize]

	// trunk: one standalone trunk.
	const cells = 8192
	t := trunk.New(trunk.Options{Capacity: 32 << 20})
	for k := uint64(0); k < cells; k++ {
		if err := t.Put(k, payload); err != nil {
			return fmt.Errorf("probe trunk.Put: %w", err)
		}
	}
	dst := make([]byte, 0, 4*cellBytes)
	trunkRead := timeOp(tr, root, "trunk.ReadInto", 200_000, func(i int) { t.ReadInto(uint64(i%cells), dst[:0]) })
	trunkPut := timeOp(tr, root, "trunk.Put", 100_000, func(i int) { t.Put(uint64(i%cells), payload) })
	trunkAppend := timeOp(tr, root, "trunk.Append", 20_000, func(i int) { t.Append(uint64(i%cells), chunk) })
	items := make([]trunk.BatchItem, 512)
	batch := timeOp(tr, root, "trunk.PutBatch", 100, func(i int) {
		for j := range items {
			items[j] = trunk.BatchItem{Key: uint64((i*512+j)%cells) + cells, Val: payload}
		}
		t.PutBatch(items)
	})
	nsSet(res, "trunk.read_ns", trunkRead)
	nsSet(res, "trunk.put_ns", trunkPut)
	nsSet(res, "trunk.append_ns", trunkAppend)
	nsSet(res, "trunk.putbatch_ns_per_cell", batch/512)
	bufs := make([][]byte, runtime.NumCPU())
	for i := range bufs {
		bufs[i] = make([]byte, 0, 4*cellBytes)
	}
	res.set("trunk.read_scaling_x", "ratio", scaling(200_000, func(w, i int) { t.ReadInto(uint64(i%cells), bufs[w][:0]) }), 1, 0)

	// buf
	nsSet(res, "buf.get_release_ns", timeOp(tr, root, "buf.Get+Release", 200_000, func(int) { buf.Get(cellBytes).Release() }))

	// msg: an echo handler on a second node, over the in-process bus and
	// over loopback TCP.
	const protoEcho msg.ProtocolID = 0x0901
	echo := func(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) { return req, nil }
	call := func(n *msg.Node) func(int) {
		return func(int) {
			if lease, _, err := n.CallLease(ctx, 1, protoEcho, payload); err == nil {
				lease.Release()
			}
		}
	}
	bus := msg.NewBus()
	reg := obs.NewRegistry()
	a := msg.NewNode(bus.Endpoint(0), msg.Options{Metrics: reg})
	b := msg.NewNode(bus.Endpoint(1), msg.Options{Metrics: reg})
	b.HandleSync(protoEcho, echo)
	callBus := timeOp(tr, root, "msg.CallLease.bus", 20_000, call(a))
	nsSet(res, "msg.call_bus_ns", callBus)
	res.set("msg.call_scaling_x", "ratio", scaling(20_000, func(int, int) { call(a)(0) }), 1, 0)
	a.Close()
	b.Close()

	ta, err := msg.NewTCPTransport(0, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("probe tcp transport: %w", err)
	}
	tb, err := msg.NewTCPTransport(1, "127.0.0.1:0")
	if err != nil {
		ta.Close()
		return fmt.Errorf("probe tcp transport: %w", err)
	}
	ta.AddPeer(1, tb.Addr())
	tb.AddPeer(0, ta.Addr())
	na := msg.NewNode(ta, msg.Options{Metrics: reg})
	nb := msg.NewNode(tb, msg.Options{Metrics: reg})
	nb.HandleSync(protoEcho, echo)
	nsSet(res, "msg.call_tcp_ns", timeOp(tr, root, "msg.CallLease.tcp", 5_000, call(na)))
	na.Close()
	nb.Close()

	// memcloud, fetch, store, tfs backup and failover: one cloud shaped
	// like the daemon's.
	creg := obs.NewRegistry()
	cloud := memcloud.New(memcloud.Config{Machines: machines, Metrics: creg})
	defer cloud.Close()
	s0 := cloud.Slave(0)
	var local, remote []uint64
	for k := uint64(0); k < 4*cells; k++ {
		if err := s0.Put(ctx, k, payload); err != nil {
			return fmt.Errorf("probe Slave.Put: %w", err)
		}
		if s0.Owner(k) == s0.ID() {
			local = append(local, k)
		} else {
			remote = append(remote, k)
		}
	}
	pick := func(keys []uint64, i int) uint64 { return keys[i%len(keys)] }
	localGet := timeOp(tr, root, "memcloud.LocalGet", 100_000, func(i int) { s0.LocalGet(pick(local, i)) })
	getLocal := timeOp(tr, root, "memcloud.Get.local", 100_000, func(i int) { s0.Get(ctx, pick(local, i)) })
	getRemote := timeOp(tr, root, "memcloud.Get.remote", 20_000, func(i int) { s0.Get(ctx, pick(remote, i)) })
	putRemote := timeOp(tr, root, "memcloud.Put.remote", 20_000, func(i int) { s0.Put(ctx, pick(remote, i), payload) })
	appendRemote := timeOp(tr, root, "memcloud.Append.remote", 10_000, func(i int) { s0.Append(ctx, pick(remote, i), chunk) })
	// Self time: what memcloud adds above the trunk and msg costs it rides on.
	nsSet(res, "memcloud.localget_ns", localGet-trunkRead)
	nsSet(res, "memcloud.get_local_ns", getLocal-trunkRead)
	nsSet(res, "memcloud.get_remote_ns", getRemote-callBus-trunkRead)
	nsSet(res, "memcloud.put_remote_ns", putRemote-callBus-trunkPut)
	nsSet(res, "memcloud.append_remote_ns", appendRemote-callBus-trunkAppend)

	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = uint64(i * 7 % (4 * cells))
	}
	f := fetch.New(s0, fetch.Options{Metrics: creg})
	getBatch := timeOp(tr, root, "fetch.GetBatch", 10, func(int) {
		f.GetBatch(ctx, keys, func(int, uint64, []byte, error) {})
	})
	f.Close()
	nsSet(res, "fetch.getbatch_ns_per_key", getBatch/float64(len(keys)))
	w := store.New(s0, store.Options{Metrics: creg})
	putBatch := timeOp(tr, root, "store.PutAsync+Drain", 10, func(int) {
		for _, k := range keys {
			w.PutAsync(k, payload)
		}
		w.Drain(ctx)
	})
	w.Close()
	nsSet(res, "store.put_ns_per_cell", putBatch/float64(len(keys)))

	// tfs: a 32 KiB record appended onto a file of about 4 MiB.
	fs := tfs.New(tfs.Options{})
	base, rec := make([]byte, 4<<20), make([]byte, 32<<10)
	nsSet(res, "tfs.append_ns", timeOp(tr, root, "tfs.AppendFile", 16, func(i int) {
		if i%8 == 0 {
			fs.WriteFile("probe", base)
		}
		fs.AppendFile("probe", rec)
	}))
	mb := float64(cloud.MemoryUsage()) / (1 << 20)
	id := tr.begin("tfs.Backup", root, 0)
	begin := time.Now()
	if err := cloud.Backup(); err != nil {
		return fmt.Errorf("probe backup: %w", err)
	}
	nsSet(res, "tfs.backup_ns_per_mb", float64(time.Since(begin))/mb)
	tr.end(id)

	// cluster: kill one machine and touch its data.
	victim := msg.MachineID(machines - 1)
	var lost uint64
	for _, k := range remote {
		if s0.Owner(k) == victim {
			lost = k
			break
		}
	}
	id = tr.begin("cluster.failover", root, 0)
	cloud.KillMachine(victim)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if _, err := s0.Get(ctx, lost); err == nil {
			break
		}
	}
	tr.end(id)
	after := snapshot(creg)
	if n := after.total("cluster", "failover_ns.count"); n > 0 {
		nsSet(res, "cluster.failover_ns", after.total("cluster", "failover_ns.sum")/n)
	}

	return graphProbes(ctx, env, res, root)
}

// graphProbes times the graph, view, traversal and BSP layers on a small
// power-law graph.
func graphProbes(ctx context.Context, env *runEnv, res *result, root int64) error {
	tr := env.tracer
	const nodes, degree = 4000, 10
	edges := powerLawEdges(newRNG(env.seed^0x9a9e), nodes, degree, 2.16)
	bld := graph.NewBuilder(true)
	for v := 0; v < nodes; v++ {
		bld.AddNode(uint64(v), 0, "")
	}
	for _, e := range edges {
		bld.AddEdge(uint64(e.src), uint64(e.dst))
	}
	reg := obs.NewRegistry()
	cloud := memcloud.New(memcloud.Config{Machines: machines, Metrics: reg})
	defer cloud.Close()
	g, err := bld.Load(ctx, cloud)
	if err != nil {
		return fmt.Errorf("probe graph load: %w", err)
	}
	m0 := g.On(0)

	typical := &graph.Node{ID: 1, Inlinks: make([]uint64, degree), Outlinks: make([]uint64, degree)}
	blob := graph.EncodeNode(typical)
	nsSet(res, "graph.encode_ns", timeOp(tr, root, "graph.EncodeNode", 100_000, func(int) { graph.EncodeNode(typical) }))
	nsSet(res, "graph.getnode_ns", timeOp(tr, root, "graph.DecodeNode", 100_000, func(int) { graph.DecodeNode(1, blob) }))
	r := newRNG(env.seed ^ 0xadd)
	nsSet(res, "graph.addedge_ns", timeOp(tr, root, "graph.AddEdge", 2_000, func(int) {
		m0.AddEdge(ctx, uint64(r.intn(nodes)), uint64(r.intn(nodes)))
	}))

	// view: a cold build on every machine.
	totalEdges := g.EdgeCount()
	build := timeOp(tr, root, "view.Acquire.cold", 3, func(int) {
		for i := 0; i < g.Machines(); i++ {
			g.On(i).InvalidatePartition()
			view.Acquire(g.On(i))
		}
	})
	nsSet(res, "view.build_ns_per_edge", build/float64(totalEdges))

	eng := traversal.New(g)
	start := func(i int) uint64 { return uint64(i*37%nodes + 1) }
	nsSet(res, "traversal.explore_ns", timeOp(tr, root, "traversal.Explore", 200, func(i int) {
		eng.Explore(ctx, 0, start(i), 3, traversal.Predicate{})
	}))
	nsSet(res, "traversal.explorecells_ns", timeOp(tr, root, "traversal.ExploreCells", 50, func(i int) {
		eng.ExploreCells(ctx, 0, start(i), 3, traversal.Predicate{})
	}))

	// bsp: a PageRank for the full superstep, and a BFS from a vertex
	// with no out-edges for a superstep that is all barrier.
	if _, err := algo.PageRank(ctx, g, 2, 0); err != nil { // warm the views
		return fmt.Errorf("probe pagerank: %w", err)
	}
	before := snapshot(reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := tr.begin("bsp.PageRank", root, 0)
	pr, err := algo.PageRank(ctx, g, 10, 0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe pagerank: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	d := snapshot(reg).sub(before)
	steps := float64(pr.Supersteps)
	full := d["bsp.superstep_ns.sum"] / d["bsp.superstep_ns.count"]
	res.set("bsp.allocs_per_superstep", "count", float64(ms1.Mallocs-ms0.Mallocs)/steps, 1, 0)
	res.set("bsp.bytes_per_superstep", "bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/steps, 1, 0)

	csrG := buildCSR(nodes, edges)
	sink := uint64(0)
	for v := 0; v < nodes; v++ {
		if len(csrG.out(uint32(v))) == 0 {
			sink = uint64(v)
			break
		}
	}
	before = snapshot(reg)
	id = tr.begin("bsp.BFS.sink", root, 0)
	_, err = algo.BFS(ctx, g, sink, 0)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe bfs: %w", err)
	}
	d = snapshot(reg).sub(before)
	barrier := d["bsp.superstep_ns.sum"] / math.Max(d["bsp.superstep_ns.count"], 1)
	nsSet(res, "bsp.superstep_barrier_ns", barrier)
	nsSet(res, "bsp.superstep_compute_ns", full-barrier)
	return nil
}

// countMetrics turns a registry delta taken around a workload's timed
// phases into the per-operation work counts, and reads the gauges that
// describe the store's end state from the later snapshot.
func countMetrics(res *result, delta, after counters, ops float64) {
	count := func(name string, v float64) { res.set(name, "count", v, 1, 0) }
	quotient := func(name, unit string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		res.set(name, unit, v, int(den), 0)
	}
	ratio := func(name string, num, den float64) { quotient(name, "ratio", num, den) }
	perOp := func(name, unit string, v float64) { res.set(name, unit, v/math.Max(ops, 1), int(ops), 0) }

	perOp("msg.calls_per_op", "1/op", delta.total("msg", "sync_calls"))
	perOp("msg.frames_per_op", "1/op", delta.total("msg", "frames_sent"))
	perOp("msg.bytes_per_op", "bytes/op", delta.total("msg", "bytes_sent"))
	count("msg.dropped_frames", delta.total("msg", "dropped_frames"))
	count("msg.calls_cancelled", delta.total("msg", "calls_cancelled"))
	count("msg.deadline_dropped_rx", delta.total("msg", "deadline_dropped_rx"))
	ratio("buf.miss_ratio", delta["buf.misses"], delta["buf.misses"]+delta["buf.hits"])

	local, remote := delta.total("memcloud", "local_ops"), delta.total("memcloud", "remote_ops")
	ratio("memcloud.remote_share", remote, local+remote)
	count("memcloud.retries", delta.total("memcloud", "retries"))
	count("memcloud.recoveries", delta.total("memcloud", "recoveries"))
	quotient("memcloud.multiget_keys_per_batch", "count", delta.total("memcloud", "multiget_keys"), delta.total("memcloud", "multiget_batches"))
	quotient("memcloud.multiput_keys_per_batch", "count", delta.total("memcloud", "multiput_keys"), delta.total("memcloud", "multiput_batches"))

	for _, pipe := range []string{"fetch", "store"} {
		quotient(pipe+".batch_size_mean", "count", delta.total(pipe, "batch_size.sum"), delta.total(pipe, "batch_size.count"))
		count(pipe+".coalesce_hits", delta.total(pipe, "coalesce_hits"))
		count(pipe+".retries", delta.total(pipe, "retries"))
	}
	count("fetch.round_trips_saved", delta.total("fetch", "round_trips_saved"))

	res.set("trunk.defrag_ns_total", "ns", delta.total("trunk", "defrag_ns.sum"), int(delta.total("trunk", "defrag_ns.count")), 0)
	res.set("trunk.defrag_reclaimed_bytes", "bytes", delta.total("trunk", "defrag_reclaimed_bytes"), 1, 0)
	res.set("trunk.load_factor", "ratio", after.total("trunk", "load_factor")/machines, machines, 0)
	res.set("trunk.gap_bytes", "bytes", after.total("trunk", "gap_bytes"), 1, 0)

	count("cluster.table_cas_retries", delta.total("cluster", "table_cas_retries"))
	res.set("cluster.heartbeat_p99_ns", "ns", after.max("cluster", "heartbeat_ns.p99"), 1, 0)

	count("view.builds", delta["view.builds"])
	ratio("view.cache_hit_ratio", delta["view.cache_hits"], delta["view.cache_hits"]+delta["view.builds"])
	count("traversal.expansions_per_query", delta["traversal.expansions"]/math.Max(delta["traversal.queries"], 1))
	count("bsp.wire_msgs_per_superstep", delta["bsp.messages_wire"]/math.Max(delta["bsp.supersteps"], 1))
	ratio("bsp.combined_ratio", delta["bsp.messages_combined"], delta["bsp.messages_sent"])
}

// walMetrics reports the write-ahead log's cost per ingested cell from a
// registry delta around an ingest.
func walMetrics(res *result, delta counters, cells, userBytes float64) {
	if cells == 0 {
		res.set("wal.group_commits_per_kcell", "count", 0, 0, 0)
		res.set("wal.bytes_per_user_byte", "ratio", 0, 0, 0)
		return
	}
	res.set("wal.group_commits_per_kcell", "count", 1000*delta.total("wal", "group_commits")/cells, int(cells), 0)
	res.set("wal.bytes_per_user_byte", "ratio", delta.total("wal", "bytes_appended")/userBytes, int(cells), 0)
}

// servingTraced is the traced run's use of the daemon: the unknown-verb
// floor, then the four-rate open-loop ladder with the daemon's registry
// scraped on both sides of it.
func servingTraced(sp *spec, res *result, sv *served, w workloadGen, b budget, nconn int) error {
	noops := noopStreams(nconn, phaseRequests(sp, b.noop, nconn))
	logs, _ := runClosed(sv.clients, noops, 1, b.noop)
	res.add(checkAll("noop", logs, replyErr))
	noop := samplesOf(logs)
	res.set("trinityd.noop_rtt_ns", "ns", percentile(latencies(noop), 0.5), len(noop), 0)

	before, err := sv.d.scrape()
	if err != nil {
		return err
	}
	pid := sv.d.cmd.Process.Pid
	daemon0, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	self0 := selfCPUSeconds()
	ops, best := 0.0, 0.0
	for i, rate := range sp.rates {
		st, err := openPhase(sp, res, sv, w, fmt.Sprintf("ladder %d", i+1), rate, b.ladderStep, nconn)
		if err != nil {
			return err
		}
		logf("ladder %.0f ops/s: p50 %.0fus p99 %.0fus p999 %.0fus late p99 %.0fus backlog %.2fs ok=%v",
			rate, st.p50Us, st.p99Us, st.p999Us, st.lateP99Us, st.backlogS, st.ok)
		ops += float64(st.samples)
		res.set(fmt.Sprintf("loadgen.lat_p99_us_r%d", i+1), "us", st.p99Us, st.windows, st.p99Spread)
		if st.ok {
			best = rate
		}
		if i == rateRef {
			res.set("loadgen.late_p99_us", "us", st.lateP99Us, st.samples, 0)
			res.set("loadgen.lat_p999_us", "us", st.p999Us, st.samples, 0)
		}
	}
	res.set("loadgen.max_rate_ok_ops_s", "ops/s", best, len(sp.rates), 0)
	daemon1, err := cpuSeconds(pid)
	if err != nil {
		return err
	}
	self := selfCPUSeconds() - self0
	res.set("loadgen.cpu_share", "ratio", self/(self+daemon1-daemon0), 1, 0)
	after, err := sv.d.scrape()
	if err != nil {
		return err
	}
	countMetrics(res, after.sub(before), after, ops)
	walMetrics(res, counters{}, 0, 0)
	res.set("proc.gc_pause_ms", "ms", sv.d.gcPauseMs(), 1, 0)
	return nil
}

// finishTrace completes a traced run: probes, the metrics no source had
// anything to say about, the span file and the table.
func finishTrace(sp *spec, env *runEnv, res *result) error {
	if !env.smoke {
		if err := runProbes(env, res); err != nil {
			return err
		}
	}
	res.set("proc.build_s", "s", env.buildS, 1, 0)
	if !sp.serving {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.set("proc.gc_pause_ms", "ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC), 0)
		res.set("proc.rss_peak_mb", "MB", peakRSSMB(os.Getpid()), 1, 0)
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.name]; !ok {
			res.set(d.name, d.unit, 0, 0, 0) // this workload gives the layer nothing to do
		}
	}
	path, err := env.tracer.write(env.root, sp.name)
	if err != nil {
		return err
	}
	logf("spans written to %s", path)
	fmt.Fprintf(os.Stdout, "\n== %s: where the time goes (self = duration minus child spans) ==\n", sp.name)
	printLayerTable(os.Stdout, env.tracer.spans)
	return nil
}
