package main

import (
	"math"
	"sort"
	"strconv"
)

// Input generation. Everything the system under test receives is derived
// here from -seed with the benchmark's own generator, never with the
// repository's internal/gen or internal/hash, so a change to those
// packages cannot change the inputs it is scored on.

// rng is splitmix64.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int        { return int(r.next() % uint64(n)) }
func (r *rng) float64() float64      { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) split(tag uint64) *rng { return &rng{s: mix64(r.next() ^ tag)} }

// zipf draws ranks in [0,n) with P(rank) ∝ 1/(rank+1)^theta, by the
// constant-time inversion of Gray et al. that YCSB uses.
type zipf struct {
	n                  float64
	theta, alpha, eta  float64
	zetan, halfPowered float64
}

func newZipf(n int, theta float64) *zipf {
	zetan := 0.0
	for i := 1; i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zetan,
		eta:         (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		halfPowered: zeta2,
	}
}

func (z *zipf) draw(r *rng) int {
	u := r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowered {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// FNV-1a, kept incremental so the state of a cell after an APPEND can be
// derived from its previous state and the appended bytes alone.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// appendValue appends a size-byte printable value that is a pure function
// of (seed, key, seq): a "<key>:<seq>:" header and pseudo-random filler.
// The line protocol carries values raw to end of line, so no byte may be a
// CR, LF or leading space.
func appendValue(dst []byte, seed, key, seq uint64, size int) []byte {
	start := len(dst)
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, ':')
	dst = strconv.AppendUint(dst, seq, 36)
	dst = append(dst, ':')
	r := rng{s: mix64(seed ^ key*0x9e3779b97f4a7c15 ^ seq<<32)}
	for len(dst)-start < size {
		x := r.next()
		for i := 0; i < 10 && len(dst)-start < size; i++ {
			dst = append(dst, alphabet[x&63])
			x >>= 6
		}
	}
	return dst[:start+size]
}

// Requests.

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opAppend
	opAddNode
	opAddEdge
	opKhop
	opNoop // an unknown verb: the daemon parses it and answers ERR
)

// request is the metadata the verifier needs about one generated line.
type request struct {
	kind opKind
	hops uint8
	size uint32 // value or chunk length
	key  uint64 // cell key, or source node
	aux  uint64 // SET: FNV of the value; APPEND: the 8 chunk bytes; ADDEDGE: destination
}

// stream is one connection's pre-generated request bytes. Request i
// occupies buf[end[i-1]:end[i]], so any run of consecutive requests is
// one contiguous write.
type stream struct {
	buf  []byte
	end  []uint32
	reqs []request
}

func (s *stream) len() int { return len(s.reqs) }

func (s *stream) off(i int) uint32 {
	if i == 0 {
		return 0
	}
	return s.end[i-1]
}

func (s *stream) push(r request) {
	s.buf = append(s.buf, '\r', '\n')
	s.end = append(s.end, uint32(len(s.buf)))
	s.reqs = append(s.reqs, r)
}

func (s *stream) get(key uint64) {
	s.buf = append(s.buf, "GET "...)
	s.buf = strconv.AppendUint(s.buf, key, 10)
	s.push(request{kind: opGet, key: key})
}

func (s *stream) set(seed, key, seq uint64, size int) {
	s.buf = append(s.buf, "SET "...)
	s.buf = strconv.AppendUint(s.buf, key, 10)
	s.buf = append(s.buf, ' ')
	at := len(s.buf)
	s.buf = appendValue(s.buf, seed, key, seq, size)
	s.push(request{kind: opSet, key: key, size: uint32(size), aux: fnvAdd(fnvOffset, s.buf[at:])})
}

const chunkSize = 8

func (s *stream) appendChunk(key, bits uint64) {
	s.buf = append(s.buf, "APPEND "...)
	s.buf = strconv.AppendUint(s.buf, key, 10)
	s.buf = append(s.buf, ' ')
	var packed uint64
	for i := 0; i < chunkSize; i++ {
		c := alphabet[bits&63]
		bits >>= 6
		s.buf = append(s.buf, c)
		packed |= uint64(c) << (8 * i)
	}
	s.push(request{kind: opAppend, key: key, size: chunkSize, aux: packed})
}

func (s *stream) addNode(id uint64) {
	s.buf = append(s.buf, "ADDNODE "...)
	s.buf = strconv.AppendUint(s.buf, id, 10)
	s.push(request{kind: opAddNode, key: id})
}

func (s *stream) addEdge(src, dst uint64) {
	s.buf = append(s.buf, "ADDEDGE "...)
	s.buf = strconv.AppendUint(s.buf, src, 10)
	s.buf = append(s.buf, ' ')
	s.buf = strconv.AppendUint(s.buf, dst, 10)
	s.push(request{kind: opAddEdge, key: src, aux: dst})
}

func (s *stream) khop(node uint64, hops int) {
	s.buf = append(s.buf, "KHOP "...)
	s.buf = strconv.AppendUint(s.buf, node, 10)
	s.buf = append(s.buf, ' ')
	s.buf = strconv.AppendUint(s.buf, uint64(hops), 10)
	s.push(request{kind: opKhop, key: node, hops: uint8(hops)})
}

func (s *stream) noop() {
	s.buf = append(s.buf, "NOOP"...)
	s.push(request{kind: opNoop})
}

// chunkBytes unpacks an APPEND request's aux back into its 8 bytes.
func chunkBytes(packed uint64) [chunkSize]byte {
	var b [chunkSize]byte
	for i := range b {
		b[i] = byte(packed >> (8 * i))
	}
	return b
}

// ownKey maps a drawn key onto the nearest key that connection c of
// nconn may write (key ≡ c mod nconn), so every key has a single writer
// and that writer's reads of it can be checked exactly.
func ownKey(key uint64, c, nconn int, nkeys uint64) uint64 {
	k := key - key%uint64(nconn) + uint64(c)
	if k >= nkeys {
		k -= uint64(nconn)
	}
	return k
}

// kvGen produces the request streams of the two key-value workloads.
type kvGen struct {
	seed    uint64
	nkeys   uint64
	nconn   int
	zipf    *zipf // nil: uniform keys
	getPct  int   // share of GET, percent
	appPct  int   // share of APPEND, percent; the rest is SET
	minSize int
	maxSize int
	seq     uint64 // unique per generated SET, so no two values are equal
}

func (g *kvGen) key(r *rng) uint64 {
	if g.zipf != nil {
		return uint64(g.zipf.draw(r))
	}
	return r.next() % g.nkeys
}

func (g *kvGen) size(r *rng) int {
	if g.maxSize == g.minSize {
		return g.minSize
	}
	return g.minSize + r.intn(g.maxSize-g.minSize+1)
}

// preload returns, per connection, SETs that create every key once.
func (g *kvGen) preload(r *rng) []*stream {
	out := make([]*stream, g.nconn)
	for c := range out {
		out[c] = &stream{}
	}
	for k := uint64(0); k < g.nkeys; k++ {
		g.seq++
		out[k%uint64(g.nconn)].set(g.seed, k, g.seq, g.size(r))
	}
	return out
}

// mix returns n requests per connection in the workload's operation mix.
func (g *kvGen) mix(r *rng, n int) []*stream {
	out := make([]*stream, g.nconn)
	for c := range out {
		s := &stream{}
		cr := r.split(uint64(c))
		for i := 0; i < n; i++ {
			p := cr.intn(100)
			k := g.key(cr)
			switch {
			case p < g.getPct:
				s.get(k)
			case p < g.getPct+g.appPct:
				s.appendChunk(ownKey(k, c, g.nconn, g.nkeys), cr.next())
			default:
				g.seq++
				s.set(g.seed, ownKey(k, c, g.nconn, g.nkeys), g.seq, g.size(cr))
			}
		}
		out[c] = s
	}
	return out
}

// Graphs.

type edge struct{ src, dst uint32 }

// powerLawEdges draws nodes*degree directed edges whose endpoints follow
// Chung-Lu weights w_i ∝ (i+1)^(-1/(gamma-1)), giving degrees distributed
// as P(k) ∝ k^-gamma. Self-loops are retargeted.
func powerLawEdges(r *rng, nodes, degree int, gamma float64) []edge {
	alpha := 1 / (gamma - 1)
	cum := make([]float64, nodes)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -alpha)
		cum[i] = total
	}
	pick := func() uint32 {
		x := r.float64() * total
		return uint32(sort.SearchFloat64s(cum, x))
	}
	out := make([]edge, 0, nodes*degree)
	for len(out) < nodes*degree {
		s, d := pick(), pick()
		if int(s) >= nodes || int(d) >= nodes {
			continue
		}
		if s == d {
			d = (d + 1) % uint32(nodes)
		}
		out = append(out, edge{s, d})
	}
	return out
}

// rmatEdges draws degree<<scale directed edges by recursive quadrant
// choice with the standard (0.57, 0.19, 0.19, 0.05) probabilities.
// Duplicate edges occur, as in the reference generator.
func rmatEdges(r *rng, scale uint, degree int) []edge {
	n := uint32(1) << scale
	out := make([]edge, 0, int(n)*degree)
	for len(out) < cap(out) {
		var s, d uint32
		for bit := uint(0); bit < scale; bit++ {
			switch x := r.float64(); {
			case x < 0.57:
			case x < 0.76:
				d |= 1 << bit
			case x < 0.95:
				s |= 1 << bit
			default:
				s |= 1 << bit
				d |= 1 << bit
			}
		}
		if s == d {
			d = (d + 1) % n
		}
		out = append(out, edge{s, d})
	}
	return out
}

// csr is a compact out-adjacency for the sequential reference algorithms.
type csr struct {
	start []uint32 // len nodes+1
	dst   []uint32
}

func buildCSR(nodes int, edges []edge) *csr {
	g := &csr{start: make([]uint32, nodes+1), dst: make([]uint32, len(edges))}
	for _, e := range edges {
		g.start[e.src+1]++
	}
	for i := 0; i < nodes; i++ {
		g.start[i+1] += g.start[i]
	}
	fill := append([]uint32(nil), g.start[:nodes]...)
	for _, e := range edges {
		g.dst[fill[e.src]] = e.dst
		fill[e.src]++
	}
	return g
}

func (g *csr) nodes() int            { return len(g.start) - 1 }
func (g *csr) out(v uint32) []uint32 { return g.dst[g.start[v]:g.start[v+1]] }

// graphGen produces the request streams of graph_serve.
type graphGen struct {
	nodes   int
	edges   []edge
	starts  []uint32 // pool of KHOP start nodes
	nconn   int
	edgePct float64 // share of ADDEDGE in the mix, percent
}

func newGraphGen(r *rng, nodes, degree, pool, nconn int, edgePct float64) *graphGen {
	g := &graphGen{nodes: nodes, nconn: nconn, edgePct: edgePct}
	g.edges = powerLawEdges(r.split(1), nodes, degree, 2.16)
	pr := r.split(2)
	g.starts = make([]uint32, pool)
	for i := range g.starts {
		g.starts[i] = uint32(pr.intn(nodes))
	}
	return g
}

// preload returns the ADDNODE lines and then the ADDEDGE lines, each
// split round-robin over the connections. Nodes go first and are awaited
// before any edge so that every edge lands on an existing cell.
func (g *graphGen) preload() (nodes, edges []*stream) {
	nodes, edges = make([]*stream, g.nconn), make([]*stream, g.nconn)
	for c := 0; c < g.nconn; c++ {
		nodes[c], edges[c] = &stream{}, &stream{}
	}
	for v := 0; v < g.nodes; v++ {
		nodes[v%g.nconn].addNode(uint64(v))
	}
	for i, e := range g.edges {
		edges[i%g.nconn].addEdge(uint64(e.src), uint64(e.dst))
	}
	return nodes, edges
}

// mix returns n requests per connection: KHOP 2 and KHOP 3 in equal
// shares from the start pool, and edgePct percent ADDEDGE between
// uniformly drawn nodes. withEdges=false leaves the ADDEDGE share out
// (the warm-up, whose replies are then checked exactly).
func (g *graphGen) mix(r *rng, n int, withEdges bool) []*stream {
	out := make([]*stream, g.nconn)
	for c := range out {
		s := &stream{}
		cr := r.split(uint64(c))
		for i := 0; i < n; i++ {
			if withEdges && cr.float64()*100 < g.edgePct {
				src := cr.intn(g.nodes)
				dst := cr.intn(g.nodes)
				if dst == src {
					dst = (dst + 1) % g.nodes
				}
				s.addEdge(uint64(src), uint64(dst))
				continue
			}
			s.khop(uint64(g.starts[cr.intn(len(g.starts))]), 2+cr.intn(2))
		}
		out[c] = s
	}
	return out
}

// noopStreams returns n unknown-verb lines per connection.
func noopStreams(nconn, n int) []*stream {
	out := make([]*stream, nconn)
	for c := range out {
		s := &stream{}
		for i := 0; i < n; i++ {
			s.noop()
		}
		out[c] = s
	}
	return out
}
