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
