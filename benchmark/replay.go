package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/obs"
)

// The traced replay: the same generated request stream a serving
// workload sends to the daemon, applied in this process through the very
// entry points the daemon's serve loop calls, with a span around each
// call. One request in 64 is also issued at every depth of the stack it
// crosses, so the span file shows one key's cost layer by layer.

const ladderEvery = 64

// value returns the payload bytes of a SET or APPEND line of s.
func (s *stream) value(i int) []byte {
	line := s.buf[s.off(i) : s.end[i]-2]
	first := bytes.IndexByte(line, ' ')
	second := first + 1 + bytes.IndexByte(line[first+1:], ' ')
	return line[second+1:]
}

// replayer hosts the in-process stand-in for the daemon.
type replayer struct {
	ctx   context.Context
	cloud *memcloud.Cloud
	g     *graph.Graph
	trav  *traversal.Engine
	f     *fetch.Fetcher
	t     tally
}

func newReplayer() *replayer {
	// The same Config trinityd passes: defaults but for the machine count.
	cloud := memcloud.New(memcloud.Config{Machines: machines, Metrics: obs.NewRegistry()})
	g := graph.New(cloud, true)
	return &replayer{
		ctx: context.Background(), cloud: cloud, g: g, trav: traversal.New(g),
		f: fetch.New(cloud.Slave(0), fetch.Options{Metrics: cloud.Metrics()}),
	}
}

func (rp *replayer) close() {
	rp.f.Close()
	rp.cloud.Close()
}

// apply performs request i of s the way serve does and reports failure.
func (rp *replayer) apply(s *stream, i int) error {
	r := s.reqs[i]
	s0 := rp.cloud.Slave(0)
	switch r.kind {
	case opGet:
		_, err := s0.Get(rp.ctx, r.key)
		return err
	case opSet:
		return s0.Put(rp.ctx, r.key, s.value(i))
	case opAppend:
		return s0.Append(rp.ctx, r.key, s.value(i))
	case opAddNode:
		return rp.g.On(0).PutNode(rp.ctx, &graph.Node{ID: r.key})
	case opAddEdge:
		return rp.g.On(0).AddEdge(rp.ctx, r.key, r.aux)
	case opKhop:
		_, err := rp.trav.KHopNeighborhoodSize(rp.ctx, 0, r.key, int(r.hops))
		return err
	}
	return fmt.Errorf("replay: request kind %d has no in-process entry point", r.kind)
}

// entryPoint names the span of a request after the layer whose public
// function serves it.
func entryPoint(k opKind) string {
	switch k {
	case opGet:
		return "memcloud.Slave.Get"
	case opSet:
		return "memcloud.Slave.Put"
	case opAppend:
		return "memcloud.Slave.Append"
	case opAddNode:
		return "graph.Machine.PutNode"
	case opAddEdge:
		return "graph.Machine.AddEdge"
	default:
		return "traversal.KHopNeighborhoodSize"
	}
}

// run applies all of s; with a tracer, under spans.
func (rp *replayer) run(s *stream, tr *tracer) time.Duration {
	begin := time.Now()
	var ladders time.Duration // not part of the replayed work
	for i := range s.reqs {
		req := int64(i + 1)
		root := tr.begin("replay.op", 0, req)
		id := tr.begin(entryPoint(s.reqs[i].kind), root, req)
		err := rp.apply(s, i)
		tr.end(id)
		tr.end(root)
		rp.t.require(err == nil, "replay: request %d: %v", i, err)
		if tr != nil && i%ladderEvery == 0 {
			at := time.Now()
			rp.ladder(s.reqs[i], tr, req)
			ladders += time.Since(at)
		}
	}
	return time.Since(begin) - ladders
}

// ladder reads the request's key at each depth, shallowest first.
func (rp *replayer) ladder(r request, tr *tracer, req int64) {
	root := tr.begin("ladder", 0, req)
	defer tr.end(root)
	s0 := rp.cloud.Slave(0)
	owner := rp.cloud.Slave(int(s0.Owner(r.key)))
	tr.call("memcloud.Slave.LocalGet", root, req, func(int64) { owner.LocalGet(r.key) })
	tr.call("memcloud.Slave.Get", root, req, func(int64) { s0.Get(rp.ctx, r.key) })
	tr.call("fetch.GetBatch", root, req, func(int64) {
		rp.f.GetBatch(rp.ctx, []uint64{r.key}, func(int, uint64, []byte, error) {})
	})
	if r.kind == opKhop || r.kind == opAddEdge {
		tr.call("graph.Machine.GetNode", root, req, func(int64) { rp.g.On(0).GetNode(rp.ctx, r.key) })
		tr.call("traversal.Explore", root, req, func(int64) {
			rp.trav.Explore(rp.ctx, 0, r.key, 2, traversal.Predicate{})
		})
	}
}

// replayTraced preloads an in-process cloud with the workload's data,
// replays one connection's worth of its mix untraced and then traced, and
// reports the cost per request and what tracing added to it.
func replayTraced(sp *spec, env *runEnv, res *result) error {
	w := newWorkloadGen(sp, env.seed, 1)
	rp := newReplayer()
	defer rp.close()
	for _, stage := range w.preload() {
		rp.run(stage[0], nil)
	}
	n := 40_000
	if sp.nodes > 0 {
		n = 400
	}
	if env.smoke {
		n /= 20
	}
	mix := w.mix(n, false)[0]
	plain := rp.run(mix, nil)
	traced := rp.run(mix, env.tracer)
	res.add(rp.t)
	perOp := float64(plain) / float64(n)
	res.set("trace.replay_ns_per_op", "ns", perOp, n, 0)
	res.set("trace.overhead_share", "ratio", (float64(traced)-float64(plain))/float64(plain), n, 0)
	logf("replay: %.0f ns/op untraced, %.0f ns/op traced", perOp, float64(traced)/float64(n))
	return nil
}
