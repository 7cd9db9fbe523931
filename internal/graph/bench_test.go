package graph_test

import (
	"context"
	"testing"
	"time"

	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

func benchCloud(machines int) *memcloud.Cloud {
	return memcloud.New(memcloud.Config{
		Machines:      machines,
		TrunkCapacity: 64 << 20,
		Msg: msg.Options{
			FlushInterval: 100 * time.Microsecond,
			CallTimeout:   10 * time.Second,
		},
		Metrics: obs.NewRegistry(),
	})
}

// buildSocial fills a builder with a deterministic social graph.
func buildSocial(people int) *graph.Builder {
	b := graph.NewBuilder(false)
	gen.BuildSocial(gen.SocialConfig{People: people, AvgDegree: 13, Seed: 42}, b)
	return b
}

// BenchmarkBulkLoad measures the bulk-load path end to end: partition a
// social graph by owner and apply it in local multi-put batches (one
// amortized trunk-lock acquisition per trunk per few hundred cells);
// allocs/op gates the batching machinery's overhead.
func BenchmarkBulkLoad(b *testing.B) {
	const people = 8000
	cloud := benchCloud(4)
	defer cloud.Close()
	g := graph.New(cloud, false)
	// Warm-up flush: iteration 1 would otherwise append into empty trunks
	// while later iterations rewrite live cells in place, skewing the mean
	// with N. After the warm-up every iteration is the same steady-state
	// rewrite. (Flush drains the builder, so each iteration rebuilds it
	// off the clock.)
	if err := buildSocial(people).Flush(context.Background(), g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bld := buildSocial(people)
		b.StartTimer()
		if err := bld.Flush(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddEdgePowerLaw adds the edges of a power-law graph (γ = 2.16,
// so a few hubs gather most of the links) on 4 machines, each entered at
// its source's owner, as trinityd does: the out-link append is local and
// the in-link is local or one call. Every pass over the edge list starts
// from empty nodes again (off the clock), so ns/op and allocs/op do not
// drift with b.N as the hubs grow.
func BenchmarkAddEdgePowerLaw(b *testing.B) {
	const nodes, degree = 2000, 8
	cloud := benchCloud(4)
	defer cloud.Close()
	g := graph.New(cloud, true)
	ctx := context.Background()
	type edge struct {
		src, dst uint64
		at       *graph.Machine
	}
	var edges []edge
	gen.PowerLaw(gen.PowerLawConfig{Nodes: nodes, AvgDegree: degree, Gamma: 2.16, Seed: 7}, func(u, v uint64) {
		edges = append(edges, edge{u, v, g.On(int(g.On(0).Slave().Owner(u)))})
	})
	reset := func() {
		for id := uint64(0); id < nodes; id++ {
			if err := g.On(0).PutNode(ctx, &graph.Node{ID: id}); err != nil {
				b.Fatal(err)
			}
		}
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(edges) == 0 {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		e := edges[i%len(edges)]
		if err := e.at.AddEdge(ctx, e.src, e.dst); err != nil {
			b.Fatal(err)
		}
	}
}
