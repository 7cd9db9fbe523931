package view

import (
	"context"
	"testing"
	"time"

	"trinity/internal/graph"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// benchGraph loads a small synthetic power-law-ish graph onto one machine
// so the two iteration strategies touch identical data.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	cloud := memcloud.New(memcloud.Config{
		Machines: 1,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second},
	})
	b.Cleanup(cloud.Close)
	bl := graph.NewBuilder(true)
	rng := hash.NewRNG(42)
	const n = 4096
	for i := uint64(0); i < n; i++ {
		deg := 1 + rng.Intn(16)
		for d := 0; d < deg; d++ {
			bl.AddEdge(i, rng.Next()%n)
		}
	}
	g, err := bl.Load(context.Background(), cloud)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkScanCSR iterates every local vertex's out-edges through the
// partition view: one Acquire (cache hit after the first iteration), then
// pure arena walks.
func BenchmarkScanCSR(b *testing.B) {
	g := benchGraph(b)
	m := g.On(0)
	if _, err := Acquire(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		v, err := Acquire(m)
		if err != nil {
			b.Fatal(err)
		}
		for idx := 0; idx < v.NumVertices(); idx++ {
			for _, nb := range v.Out(idx) {
				sum += nb
			}
		}
	}
	_ = sum
}

// BenchmarkScanTrunkDecode is the pre-view per-access path the compute
// engines used to run every superstep: enumerate local ids, then hit cell
// storage (trunk probe under the trunk mutex + header walk) per vertex.
func BenchmarkScanTrunkDecode(b *testing.B) {
	g := benchGraph(b)
	m := g.On(0)
	ids := m.LocalNodeIDs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if err := m.ForEachOutlink(id, func(nb uint64) bool {
				sum += nb
				return true
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	_ = sum
}

// BenchmarkDegreeCSR vs BenchmarkDegreeTrunk: the random-access degree
// lookup pattern initVertices and the subgraph matcher use.
func BenchmarkDegreeCSR(b *testing.B) {
	g := benchGraph(b)
	m := g.On(0)
	v, err := Acquire(m)
	if err != nil {
		b.Fatal(err)
	}
	ids := v.IDs()
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if idx, ok := v.IndexOf(id); ok {
			sum += v.OutDegree(idx)
		}
	}
	_ = sum
}

func BenchmarkDegreeTrunk(b *testing.B) {
	g := benchGraph(b)
	m := g.On(0)
	ids := m.LocalNodeIDs()
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		deg, err := m.OutDegree(context.Background(), ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		sum += deg
	}
	_ = sum
}

// BenchmarkBuild measures the one-time snapshot construction cost that
// the per-superstep savings amortize.
func BenchmarkBuild(b *testing.B) {
	g := benchGraph(b)
	m := g.On(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InvalidatePartition()
		if _, err := Acquire(m); err != nil {
			b.Fatal(err)
		}
	}
}
