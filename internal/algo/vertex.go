// Package algo implements the graph algorithms of the paper's evaluation
// on top of Trinity's computation engines: PageRank and BFS in the
// restrictive vertex-centric model (Figures 12(b), 12(c)), index-free
// distributed subgraph matching (Figures 8(a), 14(a)), the landmark-based
// distance oracle with three landmark-selection strategies (Figure 8(b)),
// and a multilevel graph partitioner (§5.3's "billion-node graph
// partitioning" claim, scaled).
package algo

import (
	"context"
	"math"

	"trinity/internal/compute/bsp"
	"trinity/internal/graph"
)

// PageRankResult carries the outcome of a PageRank run.
type PageRankResult struct {
	Ranks      map[uint64]float64
	Supersteps int
}

// pageRankProg implements PageRank with damping 0.85 in the restrictive
// model: every vertex talks only to its out-neighbors, so the program
// benefits fully from hub buffering and message combining.
type pageRankProg struct {
	iters int
}

func (p *pageRankProg) Init(id uint64, outDeg int) (float64, bool) { return 1.0, true }

func (p *pageRankProg) Combine(a, b float64) float64 { return a + b }

func (p *pageRankProg) Compute(ctx *bsp.Context, id uint64, val float64, msgs []float64) (float64, bool) {
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		val = 0.15 + 0.85*sum
	}
	if ctx.Superstep() < p.iters {
		if deg := ctx.OutDegree(); deg > 0 {
			ctx.SendToAllOut(val / float64(deg))
		}
		return val, false
	}
	return val, true
}

// PageRank runs `iters` power iterations over the distributed graph.
// HubThreshold > 0 enables the §5.4 hub optimization.
func PageRank(ctx context.Context, g *graph.Graph, iters, hubThreshold int) (*PageRankResult, error) {
	res, err := PageRankInstrumented(ctx, g, iters, hubThreshold)
	if err != nil {
		return nil, err
	}
	return &res.PageRankResult, nil
}

// InstrumentedPageRank extends PageRankResult with engine counters.
type InstrumentedPageRank struct {
	PageRankResult
	// WireMessages counts messages that physically crossed the wire:
	// one per (id, value) pair combined at the sender, so a remote target
	// counts at most once per sending machine per superstep, and one per
	// hub copy, so a hub's broadcast counts once per subscribed machine.
	WireMessages int64
}

// PageRankInstrumented is PageRank with wire-message accounting, used by
// the §5.4 hub-buffering ablation.
func PageRankInstrumented(ctx context.Context, g *graph.Graph, iters, hubThreshold int) (*InstrumentedPageRank, error) {
	e := bsp.New(g, bsp.Options{
		HubThreshold:  hubThreshold,
		MaxSupersteps: iters + 1,
	})
	steps, err := e.Run(ctx, &pageRankProg{iters: iters})
	if err != nil {
		return nil, err
	}
	return &InstrumentedPageRank{
		PageRankResult: PageRankResult{Ranks: e.Values(), Supersteps: steps},
		WireMessages:   e.WireMessages(),
	}, nil
}

// Unreached marks vertices a traversal never touched.
const Unreached = -1

// bfsProg computes hop distance from a source (the Graph 500 kernel).
type bfsProg struct {
	source uint64
}

func (p *bfsProg) Init(id uint64, _ int) (float64, bool) {
	if id == p.source {
		return 0, true
	}
	return Unreached, false
}

func (p *bfsProg) Combine(a, b float64) float64 { return math.Min(a, b) }

func (p *bfsProg) Compute(ctx *bsp.Context, id uint64, val float64, msgs []float64) (float64, bool) {
	if ctx.Superstep() == 0 {
		if id == p.source {
			ctx.SendToAllOut(1)
		}
		return val, true
	}
	if val != Unreached {
		return val, true // already labeled; ignore late messages
	}
	level := math.Inf(1)
	for _, m := range msgs {
		if m < level {
			level = m
		}
	}
	ctx.SendToAllOut(level + 1)
	return level, true
}

// BFSResult carries hop distances from the source (Unreached = -1).
type BFSResult struct {
	Levels     map[uint64]float64
	Reached    int
	Supersteps int
}

// BFS computes hop distances from source over the distributed graph.
func BFS(ctx context.Context, g *graph.Graph, source uint64, hubThreshold int) (*BFSResult, error) {
	e := bsp.New(g, bsp.Options{HubThreshold: hubThreshold})
	steps, err := e.Run(ctx, &bfsProg{source: source})
	if err != nil {
		return nil, err
	}
	res := &BFSResult{Levels: e.Values(), Supersteps: steps}
	for _, v := range res.Levels {
		if v != Unreached {
			res.Reached++
		}
	}
	return res, nil
}
