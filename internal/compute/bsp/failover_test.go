package bsp

import (
	"context"
	"math"
	"testing"
	"time"

	"trinity/internal/cluster"
	"trinity/internal/gen"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// TestPageRankAfterFailover: between a kill and its recovery a BSP run
// fails, since the table still gives the killed machine its trunks. Once
// recovery has moved them to the survivors, a PageRank runs over the live
// machines and matches the sequential reference, first on views rebuilt
// for the new trunk sets and then, after one more edge, on views patched
// from the edge log.
func TestPageRankAfterFailover(t *testing.T) {
	// No heartbeat detection within the test: recovery starts only when a
	// read reports the failure.
	c := memcloud.New(memcloud.Config{Machines: 4, BufferedLogging: true,
		Msg:     msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second},
		Cluster: cluster.Config{FailureTimeout: time.Minute}})
	t.Cleanup(c.Close)
	const nodes, iters = 400, 15
	const victim = msg.MachineID(3)
	var edges [][2]uint64
	gen.PowerLaw(gen.PowerLawConfig{Nodes: nodes, AvgDegree: 5, Seed: 3}, func(u, v uint64) {
		edges = append(edges, [2]uint64{u, v})
	})
	g, ref := loadRef(t, c, nodes, edges, nil)
	ctx := context.Background()
	check := func(when string) {
		t.Helper()
		e := New(g, Options{})
		if _, err := e.Run(ctx, &pagerank{iters: iters}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		want := ref.pageRank(iters)
		vals := e.Values()
		if len(vals) != nodes {
			t.Fatalf("%s: %d values, want %d", when, len(vals), nodes)
		}
		for id, v := range vals {
			if math.Abs(v-want[id]) > 1e-9 {
				t.Fatalf("%s: rank(%d) = %.12f, reference %.12f", when, id, v, want[id])
			}
		}
	}
	check("before the kill")

	if err := c.Backup(); err != nil {
		t.Fatal(err)
	}
	lost := int64(len(c.Slave(int(victim)).LocalTrunkIDs()))
	c.KillMachine(victim)
	if _, err := New(g, Options{}).Run(ctx, &pagerank{iters: iters}); err == nil {
		t.Fatal("a run before the recovery succeeded over part of the graph")
	} else {
		t.Logf("before the recovery: %v", err)
	}
	s0 := c.Slave(0)
	var key uint64
	for s0.Owner(key) != victim {
		key++
	}
	// A read of a victim's key reports the failure and waits out the
	// recovery.
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Recoveries < lost {
		_, _ = s0.Get(ctx, key)
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d trunks recovered", c.Stats().Recoveries, lost)
		}
		time.Sleep(10 * time.Millisecond)
	}
	check("after the recovery")

	u, v := uint64(1), uint64(2)
	if err := g.On(0).AddEdge(ctx, u, v); err != nil {
		t.Fatal(err)
	}
	ref.out[u] = append(ref.out[u], v)
	derives := c.Metrics().Scope("view").Counter("derives").Load()
	check("after an edge appended past the recovery")
	if c.Metrics().Scope("view").Counter("derives").Load() == derives {
		t.Fatal("no view was patched after the recovery")
	}
}
