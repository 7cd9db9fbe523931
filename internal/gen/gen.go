// Package gen provides the synthetic graph generators used by the paper's
// evaluation: R-MAT graphs (Figures 12(b)-(d), 13), scale-free power-law
// graphs with the degree distribution P(k) ∝ c·k^(-γ) quoted in §5.4
// (c = 1.16, γ = 2.16), Facebook-like social graphs with person names for
// the people-search experiment (Figure 12(a)), and laptop-scale stand-ins
// for the Wordnet and US-patent graphs of Figure 14(a).
//
// All generators are deterministic given a seed, and emit edges through a
// callback so callers can stream into a graph.Builder without holding a
// second copy of the edge list.
package gen

import (
	"fmt"
	"math"

	"trinity/internal/graph"
	"trinity/internal/hash"
)

// EmitFunc receives one generated edge.
type EmitFunc func(src, dst uint64)

// RMATConfig parameterizes an R-MAT generator (Chakrabarti et al., SDM'04,
// cited as [12] in the paper).
type RMATConfig struct {
	// Scale is log2 of the node count.
	Scale uint
	// AvgDegree is the average out-degree; the paper's web-graph
	// experiments use 13.
	AvgDegree int
	// A, B, C are the recursive quadrant probabilities (D = 1-A-B-C).
	// Zero values default to the standard (0.57, 0.19, 0.19).
	A, B, C float64
	// Seed makes the graph reproducible.
	Seed uint64
}

// RMAT generates an R-MAT graph, emitting Scale·AvgDegree·2^Scale edges.
// Self-loops are retargeted; duplicate edges may occur, as in the
// reference generator.
func RMAT(cfg RMATConfig, emit EmitFunc) {
	if cfg.A == 0 && cfg.B == 0 && cfg.C == 0 {
		cfg.A, cfg.B, cfg.C = 0.57, 0.19, 0.19
	}
	n := uint64(1) << cfg.Scale
	edges := uint64(cfg.AvgDegree) * n
	rng := hash.NewRNG(cfg.Seed)
	ab := cfg.A + cfg.B
	abc := ab + cfg.C
	for e := uint64(0); e < edges; e++ {
		var src, dst uint64
		for bit := uint(0); bit < cfg.Scale; bit++ {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits set
			case r < ab:
				dst |= 1 << bit
			case r < abc:
				src |= 1 << bit
			default:
				src |= 1 << bit
				dst |= 1 << bit
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		emit(src, dst)
	}
}

// PowerLawConfig parameterizes a Chung-Lu style scale-free generator.
type PowerLawConfig struct {
	// Nodes is the node count.
	Nodes int
	// AvgDegree is the average out-degree.
	AvgDegree int
	// Gamma is the power-law exponent; the paper's example uses 2.16.
	Gamma float64
	// Seed makes the graph reproducible.
	Seed uint64
}

// PowerLaw generates a directed scale-free graph: both endpoints of each
// edge are drawn from a weight distribution w_i ∝ (i+1)^(-1/(γ-1)),
// which yields degrees distributed as P(k) ∝ k^(-γ). Nodes·AvgDegree
// edges are emitted; self-loops are retargeted.
func PowerLaw(cfg PowerLawConfig, emit EmitFunc) {
	if cfg.Gamma == 0 {
		cfg.Gamma = 2.16
	}
	n := cfg.Nodes
	cum := cumulativeWeights(n, cfg.Gamma)
	rng := hash.NewRNG(cfg.Seed)
	edges := n * cfg.AvgDegree
	for e := 0; e < edges; e++ {
		src := sampleCum(cum, rng)
		dst := sampleCum(cum, rng)
		if src == dst {
			dst = (dst + 1) % n
		}
		emit(uint64(src), uint64(dst))
	}
}

// cumulativeWeights builds the cumulative Chung-Lu weight table.
func cumulativeWeights(n int, gamma float64) []float64 {
	alpha := 1 / (gamma - 1)
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -alpha)
		cum[i] = total
	}
	return cum
}

// sampleCum draws an index proportional to the weight table.
func sampleCum(cum []float64, rng *hash.RNG) int {
	target := rng.Float64() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// UniformConfig parameterizes a uniform random digraph.
type UniformConfig struct {
	Nodes     int
	AvgDegree int
	Seed      uint64
}

// Uniform generates a directed graph with Nodes·AvgDegree edges whose
// endpoints are uniform; degree concentrates around AvgDegree.
func Uniform(cfg UniformConfig, emit EmitFunc) {
	rng := hash.NewRNG(cfg.Seed)
	edges := cfg.Nodes * cfg.AvgDegree
	for e := 0; e < edges; e++ {
		src := rng.Intn(cfg.Nodes)
		dst := rng.Intn(cfg.Nodes)
		if src == dst {
			dst = (dst + 1) % cfg.Nodes
		}
		emit(uint64(src), uint64(dst))
	}
}

// firstNames is the name pool for social graphs. "David" is present
// because the paper's running example searches for Davids within 3 hops.
var firstNames = []string{
	"David", "Alice", "Bob", "Carol", "Daniel", "Emma", "Frank", "Grace",
	"Henry", "Ivy", "Jack", "Karen", "Liam", "Mia", "Noah", "Olivia",
	"Peter", "Quinn", "Rachel", "Sam", "Tina", "Uma", "Victor", "Wendy",
	"Xavier", "Yara", "Zoe", "Aaron", "Bella", "Caleb", "Diana", "Ethan",
	"Fiona", "George", "Hanna", "Isaac", "Julia", "Kevin", "Laura", "Mark",
	"Nina", "Oscar", "Paula", "Ray", "Sara", "Tom", "Ursula", "Vera",
	"Will", "Xena", "Yusuf", "Zach", "Amber", "Brian", "Clara", "Derek",
	"Elena", "Felix", "Gina", "Hugo", "Irene", "Jonas", "Kyle", "Lena",
}

// NameOf returns the deterministic name of person i in a social graph:
// a first name from the pool plus a numeric surname.
func NameOf(i uint64) string {
	return fmt.Sprintf("%s %d", firstNames[hash.Mix64(i)%uint64(len(firstNames))], i)
}

// FirstNameOf returns just the first name of person i.
func FirstNameOf(i uint64) string {
	return firstNames[hash.Mix64(i)%uint64(len(firstNames))]
}

// SocialConfig parameterizes a Facebook-like social graph.
type SocialConfig struct {
	// People is the number of persons.
	People int
	// AvgDegree is the average friend count (Facebook's quoted average
	// was 130; Figure 12(a) sweeps 10..200).
	AvgDegree int
	// Seed makes the graph reproducible.
	Seed uint64
}

// BuildSocial generates an undirected power-law friendship graph whose
// nodes carry person names (Label = interned first name for fast
// filtering, Name = full name) and loads it into a builder.
func BuildSocial(cfg SocialConfig, b *graph.Builder) {
	for i := 0; i < cfg.People; i++ {
		id := uint64(i)
		b.AddNode(id, int64(hash.String(FirstNameOf(id))), NameOf(id))
	}
	PowerLaw(PowerLawConfig{
		Nodes:     cfg.People,
		AvgDegree: cfg.AvgDegree / 2, // undirected: each edge adds 2 to degree
		Gamma:     2.16,
		Seed:      cfg.Seed,
	}, func(u, v uint64) { b.AddEdge(u, v) })
}

// BuildRMAT loads an R-MAT graph into a builder with node labels drawn
// uniformly from [0, labels) — labeled graphs drive subgraph matching.
func BuildRMAT(cfg RMATConfig, labels int, b *graph.Builder) {
	n := uint64(1) << cfg.Scale
	rng := hash.NewRNG(cfg.Seed + 1)
	for i := uint64(0); i < n; i++ {
		label := int64(0)
		if labels > 0 {
			label = int64(rng.Intn(labels))
		}
		b.AddNode(i, label, "")
	}
	RMAT(cfg, func(u, v uint64) { b.AddEdge(u, v) })
}

// BuildUniform loads a uniform graph with uniform labels into a builder.
//
//reach:test-seam fixture: tests in algo and compute/* load it
func BuildUniform(cfg UniformConfig, labels int, b *graph.Builder) {
	rng := hash.NewRNG(cfg.Seed + 1)
	for i := 0; i < cfg.Nodes; i++ {
		label := int64(0)
		if labels > 0 {
			label = int64(rng.Intn(labels))
		}
		b.AddNode(uint64(i), label, "")
	}
	Uniform(cfg, func(u, v uint64) { b.AddEdge(u, v) })
}

// ClusteredConfig parameterizes a community-structured social graph.
type ClusteredConfig struct {
	// Communities is the number of dense clusters.
	Communities int
	// PeoplePerCommunity is the cluster size.
	PeoplePerCommunity int
	// IntraDegree is the average degree inside a community.
	IntraDegree int
	// Bridges is the number of extra random inter-community edges on top
	// of the topology; bridge endpoints acquire high betweenness without
	// especially high degree.
	Bridges int
	// Ring connects community c to community c+1 (one bridge each),
	// giving the graph a large diameter: shortest paths between far
	// communities thread through many bridges, so betweenness-central
	// vertices dominate triangulation quality.
	Ring bool
	// DenseSatellites adds this many extra-dense communities hanging off
	// the ring by a single edge each. Their members have the highest
	// degrees in the graph but almost no betweenness (nothing routes
	// through a cul-de-sac), which is exactly what makes largest-degree
	// landmark selection fail in Figure 8(b).
	DenseSatellites int
	// Seed makes the graph reproducible.
	Seed uint64
}

// BuildClustered generates an undirected social graph with strong
// community structure: dense power-law communities connected by a few
// bridge edges. On such graphs degree centrality is a poor landmark
// selector (the highest-degree vertices sit deep inside communities)
// while betweenness finds the bridges — the regime Figure 8(b) probes.
func BuildClustered(cfg ClusteredConfig, b *graph.Builder) {
	rng := hash.NewRNG(cfg.Seed)
	total := (cfg.Communities + cfg.DenseSatellites) * cfg.PeoplePerCommunity
	for i := 0; i < total; i++ {
		id := uint64(i)
		b.AddNode(id, int64(hash.String(FirstNameOf(id))), NameOf(id))
	}
	// Dense intra-community structure; satellites get several times the
	// internal degree.
	for c := 0; c < cfg.Communities+cfg.DenseSatellites; c++ {
		base := c * cfg.PeoplePerCommunity
		sub := hash.NewRNG(cfg.Seed + uint64(c) + 1)
		cum := cumulativeWeights(cfg.PeoplePerCommunity, 2.16)
		deg := cfg.IntraDegree
		if c >= cfg.Communities {
			deg *= 6
		}
		edges := cfg.PeoplePerCommunity * deg / 2
		for e := 0; e < edges; e++ {
			u := sampleCum(cum, sub)
			v := sampleCum(cum, sub)
			if u == v {
				v = (v + 1) % cfg.PeoplePerCommunity
			}
			b.AddEdge(uint64(base+u), uint64(base+v))
		}
	}
	// Bridge anchors sit away from the power-law head (offset >= half the
	// community) so they have modest degree but high betweenness.
	anchor := func(c int) uint64 {
		o := cfg.PeoplePerCommunity/2 + rng.Intn(cfg.PeoplePerCommunity/2)
		return uint64(c*cfg.PeoplePerCommunity + o)
	}
	if cfg.Ring {
		for c := 0; c < cfg.Communities; c++ {
			b.AddEdge(anchor(c), anchor((c+1)%cfg.Communities))
		}
	}
	for e := 0; e < cfg.Bridges; e++ {
		c1 := rng.Intn(cfg.Communities)
		c2 := rng.Intn(cfg.Communities)
		if c1 == c2 {
			c2 = (c2 + 1) % cfg.Communities
		}
		b.AddEdge(anchor(c1), anchor(c2))
	}
	// Each satellite hangs off one ring community by a single edge.
	for sidx := 0; sidx < cfg.DenseSatellites; sidx++ {
		s := cfg.Communities + sidx
		host := sidx * cfg.Communities / max(cfg.DenseSatellites, 1) % cfg.Communities
		b.AddEdge(anchor(s), anchor(host))
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BuildWordnetLike generates a stand-in for the Wordnet lexical graph of
// Figure 14(a): a dense small-world graph (ring lattice plus random
// chords) with a small label alphabet playing the role of synset types.
func BuildWordnetLike(nodes int, seed uint64, b *graph.Builder) {
	rng := hash.NewRNG(seed)
	const labelAlphabet = 25 // noun/verb/adj/... synset categories
	for i := 0; i < nodes; i++ {
		b.AddNode(uint64(i), int64(rng.Intn(labelAlphabet)), "")
	}
	for i := 0; i < nodes; i++ {
		// Ring lattice neighbors (hypernym chains)...
		b.AddEdge(uint64(i), uint64((i+1)%nodes))
		b.AddEdge(uint64(i), uint64((i+2)%nodes))
		// ...plus random semantic relations.
		for k := 0; k < 2; k++ {
			j := rng.Intn(nodes)
			if j != i {
				b.AddEdge(uint64(i), uint64(j))
			}
		}
	}
}

// BuildPatentLike generates a stand-in for the US-patent citation network
// of Figure 14(a): a sparse near-DAG where node i cites earlier nodes
// with preferential attachment, labeled by a synthetic patent class.
func BuildPatentLike(nodes int, seed uint64, b *graph.Builder) {
	rng := hash.NewRNG(seed)
	const classes = 50
	for i := 0; i < nodes; i++ {
		b.AddNode(uint64(i), int64(rng.Intn(classes)), "")
	}
	for i := 1; i < nodes; i++ {
		cites := 3 + rng.Intn(5) // patents cite a handful of priors
		for k := 0; k < cites; k++ {
			// Preferential attachment to earlier patents: squaring the
			// uniform variate biases toward low (old, popular) IDs.
			f := rng.Float64()
			j := int(f * f * float64(i))
			if j != i {
				b.AddEdge(uint64(i), uint64(j))
			}
		}
	}
}
