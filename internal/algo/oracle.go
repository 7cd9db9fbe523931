package algo

import (
	"context"
	"fmt"
	"math"
	"sort"

	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/hash"
)

// LandmarkStrategy selects landmark vertices for the distance oracle —
// the three strategies compared in Figure 8(b).
type LandmarkStrategy int

// Landmark selection strategies.
const (
	// ByDegree picks the highest-degree vertices (the paper's worst
	// performer).
	ByDegree LandmarkStrategy = iota
	// ByGlobalBetweenness picks the vertices with the highest approximate
	// betweenness computed over the whole graph (best, but costly).
	ByGlobalBetweenness
	// ByLocalBetweenness computes betweenness per machine over its LOCAL
	// partition only and takes each machine's top vertices — the paper's
	// §5.5 "new paradigm": a random partition is a random sample, so
	// local computation approximates the global answer at a fraction of
	// the cost.
	ByLocalBetweenness
)

func (s LandmarkStrategy) String() string {
	switch s {
	case ByDegree:
		return "LargestDegree"
	case ByGlobalBetweenness:
		return "GlobalBetweenness"
	case ByLocalBetweenness:
		return "LocalBetweenness"
	default:
		return fmt.Sprintf("LandmarkStrategy(%d)", int(s))
	}
}

// Oracle estimates shortest distances via landmarks: est(u,v) =
// min over landmarks l of d(u,l) + d(l,v) (triangulation upper bound).
type Oracle struct {
	g         *graph.Graph
	Landmarks []uint64
	// dist[i] maps vertex -> hop distance to landmark i.
	dist []map[uint64]float64
}

// BuildOracle selects `k` landmarks with the strategy and runs one BFS
// per landmark to index distances. The graph should be loaded undirected
// for meaningful distance estimates.
func BuildOracle(ctx context.Context, g *graph.Graph, k int, strategy LandmarkStrategy, seed uint64) (*Oracle, error) {
	var landmarks []uint64
	var err error
	switch strategy {
	case ByDegree:
		landmarks, err = topByDegree(g, k)
	case ByGlobalBetweenness:
		landmarks, err = topByBetweenness(g, k, 128, seed, false)
	case ByLocalBetweenness:
		landmarks, err = topByBetweenness(g, k, 128, seed, true)
	default:
		return nil, fmt.Errorf("algo: unknown landmark strategy %d", strategy)
	}
	if err != nil {
		return nil, err
	}
	o := &Oracle{g: g, Landmarks: landmarks}
	for _, l := range landmarks {
		res, err := BFS(ctx, g, l, 0)
		if err != nil {
			return nil, err
		}
		o.dist = append(o.dist, res.Levels)
	}
	return o, nil
}

// Estimate returns the landmark-triangulated distance estimate, or +Inf
// if no landmark reaches both endpoints.
func (o *Oracle) Estimate(u, v uint64) float64 {
	if u == v {
		return 0
	}
	best := math.Inf(1)
	for _, d := range o.dist {
		du, ok1 := d[u]
		dv, ok2 := d[v]
		if ok1 && ok2 && du != Unreached && dv != Unreached {
			if e := du + dv; e < best {
				best = e
			}
		}
	}
	return best
}

// Accuracy samples `pairs` random connected vertex pairs, compares the
// estimate against the true BFS distance, and returns the mean accuracy
// percentage (100% = exact), the Figure 8(b) metric.
func (o *Oracle) Accuracy(ctx context.Context, pairs int, seed uint64) (float64, error) {
	rng := hash.NewRNG(seed)
	// Collect the vertex universe once.
	var ids []uint64
	for i := 0; i < o.g.Machines(); i++ {
		ids = append(ids, o.g.On(i).LocalNodeIDs()...)
	}
	if len(ids) < 2 {
		return 0, fmt.Errorf("algo: graph too small for accuracy sampling")
	}
	total, counted := 0.0, 0
	for counted < pairs {
		u := ids[rng.Intn(len(ids))]
		// True distances from u (one BFS serves many pairs).
		res, err := BFS(ctx, o.g, u, 0)
		if err != nil {
			return 0, err
		}
		// Sample a handful of reachable targets per source.
		for t := 0; t < 8 && counted < pairs; t++ {
			v := ids[rng.Intn(len(ids))]
			actual, ok := res.Levels[v]
			if !ok || actual == Unreached || actual == 0 {
				continue
			}
			est := o.Estimate(u, v)
			if math.IsInf(est, 1) {
				continue
			}
			// est is an upper bound; accuracy decays with relative error.
			acc := 1 - (est-actual)/actual
			if acc < 0 {
				acc = 0
			}
			total += acc
			counted++
		}
	}
	return 100 * total / float64(counted), nil
}

// topByDegree returns the k highest-out-degree vertices, reading degrees
// straight from each machine's partition view (no per-cell decode).
func topByDegree(g *graph.Graph, k int) ([]uint64, error) {
	type dv struct {
		id  uint64
		deg int
	}
	var all []dv
	for i := 0; i < g.Machines(); i++ {
		v, err := view.Acquire(g.On(i))
		if err != nil {
			return nil, err
		}
		for idx := 0; idx < v.NumVertices(); idx++ {
			all = append(all, dv{v.IDOf(idx), v.OutDegree(idx)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out, nil
}

// topByBetweenness approximates betweenness centrality with sampled
// Brandes (shortest-path dependency accumulation from `samples` random
// sources). With local=true the computation runs independently on each
// machine's local subgraph (edges whose both endpoints are local) and the
// per-machine rankings are merged round-robin — the cheap §5.5 estimator;
// with local=false it runs over the full graph.
func topByBetweenness(g *graph.Graph, k, samples int, seed uint64, local bool) ([]uint64, error) {
	if !local {
		adj, ids, err := gatherAdjacency(g, -1)
		if err != nil {
			return nil, err
		}
		scores := brandesSample(adj, ids, samples, seed)
		return topK(scores, k), nil
	}
	// Local mode: rank per machine, then interleave machine toplists.
	perMachine := make([][]uint64, g.Machines())
	for i := 0; i < g.Machines(); i++ {
		adj, ids, err := gatherAdjacency(g, i)
		if err != nil {
			return nil, err
		}
		scores := brandesSample(adj, ids, samples/g.Machines()+1, seed+uint64(i))
		perMachine[i] = topK(scores, k)
	}
	var out []uint64
	seen := map[uint64]bool{}
	for round := 0; len(out) < k; round++ {
		progress := false
		for i := 0; i < g.Machines() && len(out) < k; i++ {
			if round < len(perMachine[i]) {
				id := perMachine[i][round]
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return out, nil
}

// gatherAdjacency snapshots adjacency from the partition views. machine
// >= 0 restricts to one machine's local subgraph (both endpoints local).
// In whole-graph mode the returned neighbor slices alias the views' CSR
// arenas and must be treated as read-only.
func gatherAdjacency(g *graph.Graph, machine int) (map[uint64][]uint64, []uint64, error) {
	adj := map[uint64][]uint64{}
	var ids []uint64
	collect := func(i int) error {
		v, err := view.Acquire(g.On(i))
		if err != nil {
			return err
		}
		for idx := 0; idx < v.NumVertices(); idx++ {
			id := v.IDOf(idx)
			out := v.Out(idx)
			if machine >= 0 {
				// Keep only edges whose both endpoints are local.
				var local []uint64
				for _, dst := range out {
					if _, ok := v.IndexOf(dst); ok {
						local = append(local, dst)
					}
				}
				adj[id] = local
			} else {
				adj[id] = out
			}
			ids = append(ids, id)
		}
		return nil
	}
	if machine >= 0 {
		if err := collect(machine); err != nil {
			return nil, nil, err
		}
	} else {
		for i := 0; i < g.Machines(); i++ {
			if err := collect(i); err != nil {
				return nil, nil, err
			}
		}
	}
	return adj, ids, nil
}

// brandesSample runs Brandes' dependency accumulation from sampled
// sources over an unweighted graph snapshot.
func brandesSample(adj map[uint64][]uint64, ids []uint64, samples int, seed uint64) map[uint64]float64 {
	scores := make(map[uint64]float64, len(ids))
	if len(ids) == 0 {
		return scores
	}
	rng := hash.NewRNG(seed)
	if samples > len(ids) {
		samples = len(ids)
	}
	for s := 0; s < samples; s++ {
		src := ids[rng.Intn(len(ids))]
		// BFS with shortest-path counting.
		sigma := map[uint64]float64{src: 1}
		dist := map[uint64]int{src: 0}
		order := []uint64{src}
		preds := map[uint64][]uint64{}
		for head := 0; head < len(order); head++ {
			u := order[head]
			for _, v := range adj[u] {
				if _, seen := dist[v]; !seen {
					dist[v] = dist[u] + 1
					order = append(order, v)
				}
				if dist[v] == dist[u]+1 {
					sigma[v] += sigma[u]
					preds[v] = append(preds[v], u)
				}
			}
		}
		// Dependency accumulation in reverse BFS order.
		delta := map[uint64]float64{}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != src {
				scores[w] += delta[w]
			}
		}
	}
	return scores
}

// topK returns the k highest-scoring vertex ids (deterministic ties).
func topK(scores map[uint64]float64, k int) []uint64 {
	type sv struct {
		id    uint64
		score float64
	}
	all := make([]sv, 0, len(scores))
	for id, s := range scores {
		all = append(all, sv{id, s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].id
	}
	return out
}
