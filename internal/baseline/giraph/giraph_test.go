package giraph

import (
	"math"
	"testing"

	"trinity/internal/gen"
)

func ringAdjacency(n int) map[uint64][]uint64 {
	adj := make(map[uint64][]uint64, n)
	for i := 0; i < n; i++ {
		adj[uint64(i)] = []uint64{uint64((i + 1) % n)}
	}
	return adj
}

// values snapshots all vertex values.
func values(e *Engine) map[uint64]any {
	out := make(map[uint64]any)
	for _, w := range e.workers {
		for id, v := range w.vertices {
			out[id] = v.Value
		}
	}
	return out
}

func TestPageRankOnRing(t *testing.T) {
	e := New(3, ringAdjacency(30))
	defer e.Close()
	steps := e.Run(&PageRank{Iterations: 25}, 100)
	if steps < 25 {
		t.Fatalf("steps = %d", steps)
	}
	for id, v := range values(e) {
		if math.Abs(v.(float64)-1.0) > 1e-6 {
			t.Fatalf("rank(%d) = %v", id, v)
		}
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	adj := map[uint64][]uint64{}
	gen.Uniform(gen.UniformConfig{Nodes: 150, AvgDegree: 5, Seed: 4}, func(u, v uint64) {
		adj[u] = append(adj[u], v)
	})
	for i := uint64(0); i < 150; i++ {
		if _, ok := adj[i]; !ok {
			adj[i] = nil
		}
	}
	const iters = 15
	ref := make([]float64, 150)
	for i := range ref {
		ref[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		in := make([]float64, 150)
		for u, out := range adj {
			if len(out) == 0 {
				continue
			}
			share := ref[u] / float64(len(out))
			for _, v := range out {
				in[v] += share
			}
		}
		for i := range ref {
			ref[i] = 0.15 + 0.85*in[i]
		}
	}
	e := New(4, adj)
	defer e.Close()
	e.Run(&PageRank{Iterations: iters}, iters+2)
	for id, v := range values(e) {
		if math.Abs(v.(float64)-ref[id]) > 1e-9 {
			t.Fatalf("rank(%d) = %v, reference %v", id, v, ref[id])
		}
	}
}

func TestNoPackingMeansManyFrames(t *testing.T) {
	adj := ringAdjacency(100)
	e := New(4, adj)
	defer e.Close()
	e.Run(&PageRank{Iterations: 3}, 10)
	// Every cross-machine message is its own frame; a 100-vertex ring over
	// 4 machines for 3 iterations must send hundreds of frames.
	var got int64
	for _, w := range e.workers {
		got += w.node.Stats().FramesSent
	}
	if got < 100 {
		t.Fatalf("frames = %d; packing appears enabled in the baseline", got)
	}
}

func TestHaltTermination(t *testing.T) {
	e := New(2, ringAdjacency(10))
	defer e.Close()
	steps := e.Run(&PageRank{Iterations: 2}, 100)
	if steps > 5 {
		t.Fatalf("engine did not terminate promptly: %d steps", steps)
	}
}
