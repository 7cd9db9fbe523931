// Package traversal implements Trinity's online traversal-based query
// processing (paper §5.1): low-latency graph exploration over the memory
// cloud, the paradigm behind the "find any David within 3 hops" people
// search.
//
// A query fans out level by level: the coordinator machine groups the
// frontier by owner machine and issues one parallel expansion request per
// machine; each machine explores its local vertices through its partition
// view (internal/graph/view) — predicate tests are array reads and edge
// expansion walks the CSR arena — and returns matches plus the next
// frontier fragment. No index is used — the performance comes from fast
// random access and parallelism, exactly the paper's argument.
//
// No map is on the query path. On the wire, request ids and reply
// neighbors are strictly ascending. An owner expands its fragment in the
// view's slot arena (View.OutSlots): one bit per out-edge slot in a pooled
// bitset, which drops duplicate and shared neighbors, read back in slot
// order as two ascending runs (local targets, then remote ones) and merged
// into the reply. The coordinator keeps its visited set as an ascending
// slice: each level's next frontier is the merge of the owners' replies
// minus visited, and folds into visited, in linear passes over reused
// buffers. Owners keep no state between requests: no query id, no
// registry, no view pinned across levels, since slots never leave the
// owner that numbered them.
package traversal

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"

	"trinity/internal/buf"
	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// protoExpand is the one-sided frontier-expansion protocol.
const protoExpand msg.ProtocolID = 0x0401

// Predicate filters visited nodes. The zero value matches nothing and is
// used for pure reachability exploration.
type Predicate struct {
	// Mode selects the match rule.
	Mode PredicateMode
	// Label matches nodes whose Label equals this value (MatchLabel).
	// People search interns the first name into the label, so "find
	// Davids" is a label comparison, not a string scan.
	Label int64
	// Prefix matches nodes whose Name starts with this (MatchNamePrefix).
	Prefix string
}

// PredicateMode enumerates predicate kinds.
type PredicateMode uint8

// Predicate modes.
const (
	MatchNone PredicateMode = iota
	MatchLabel
	MatchNamePrefix
)

// Result is the outcome of an exploration query.
type Result struct {
	// Matches are the nodes satisfying the predicate, each once, level by
	// level; within a level, by owner machine, ascending within each. The
	// start node is tested too.
	Matches []uint64
	// Visited is the total number of distinct nodes reached (including
	// the start).
	Visited int
	// Levels records the frontier size at each hop.
	Levels []int
}

// Engine serves traversal queries over a graph. Construct one per
// process; it registers its protocol on every machine.
type Engine struct {
	g *graph.Graph

	// Registry-backed metrics (scope "traversal" on the cloud's registry).
	queries    *obs.Counter
	expansions *obs.Counter
	visited    *obs.Counter
	exploreNs  *obs.Histogram

	coordPool sync.Pool // *coordScratch
	ownerPool sync.Pool // *ownerScratch
}

// New builds a traversal engine and installs handlers on all machines.
func New(g *graph.Graph) *Engine {
	scope := g.On(0).Slave().Metrics().Scope("traversal")
	e := &Engine{
		g:          g,
		queries:    scope.Counter("queries"),
		expansions: scope.Counter("expansions"),
		visited:    scope.Counter("visited"),
		exploreNs:  scope.Histogram("explore_ns"),
	}
	e.coordPool.New = func() any { return newCoordScratch(g.Machines()) }
	e.ownerPool.New = func() any { return new(ownerScratch) }
	for i := 0; i < g.Machines(); i++ {
		m := g.On(i)
		mm := m
		m.Slave().Node().HandleSync(protoExpand, func(ctx context.Context, from msg.MachineID, req []byte) ([]byte, error) {
			return e.serve(ctx, mm, req, nil)
		})
	}
	return e
}

// Explore runs a breadth-first exploration from start up to `hops` hops
// away, collecting nodes that satisfy pred. The query is served by
// machine `via` (any machine can coordinate, like a Trinity client
// talking to any slave).
func (e *Engine) Explore(ctx context.Context, via int, start uint64, hops int, pred Predicate) (*Result, error) {
	e.queries.Inc()
	qStart := time.Now()
	defer func() { e.exploreNs.Observe(int64(time.Since(qStart))) }()
	coord := e.g.On(via)
	if !coord.HasNode(ctx, start) {
		// A cancelled lookup is not a missing node.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("traversal: start node %d does not exist", start)
	}
	q := e.coordPool.Get().(*coordScratch)
	defer e.coordPool.Put(q)
	res, err := e.explore(ctx, q, coord, start, hops, pred)
	if err != nil {
		return nil, err
	}
	e.visited.Add(int64(res.Visited))
	return res, nil
}

// explore is Explore's level loop over the coordinator's sorted sets.
func (e *Engine) explore(ctx context.Context, q *coordScratch, coord *graph.Machine, start uint64, hops int, pred Predicate) (*Result, error) {
	res := &Result{Visited: 1}
	q.visited = append(q.visited[:0], start)
	frontier := append(q.next[:0], start)
	self := coord.Slave().ID()
	for hop := 0; hop <= hops && len(frontier) > 0; hop++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The final frontier is tested against the predicate but not
		// expanded further.
		expandMore := hop < hops
		if !expandMore && pred.Mode == MatchNone {
			// Nothing to test and nothing to expand: scattering the last
			// (and largest) frontier to every machine would be a full
			// round of round trips for an empty reply.
			break
		}
		// Group the ascending frontier by owner machine: each group stays
		// ascending, as the wire requires.
		for o := range q.groups {
			q.groups[o] = q.groups[o][:0]
		}
		for _, id := range frontier {
			o := coord.Slave().Owner(id)
			q.groups[o] = append(q.groups[o], id)
		}
		// One parallel request per machine: each machine tests the
		// predicate on its own vertices and, unless this is the last hop,
		// returns their out-neighbors as one ascending run. The
		// coordinator's own group is served inline.
		pending := 0
		for o, ids := range q.groups {
			q.replies[o] = reply{}
			if len(ids) == 0 || msg.MachineID(o) == self {
				continue
			}
			pending++
			go func(o int, ids []uint64) {
				r := &q.replies[o]
				r.matches, r.neighbors, r.err = e.expand(ctx, q, coord, msg.MachineID(o), ids, pred, expandMore)
				q.done <- struct{}{}
			}(o, ids)
		}
		if ids := q.groups[self]; len(ids) > 0 {
			r := &q.replies[self]
			r.matches, r.neighbors, r.err = e.expand(ctx, q, coord, self, ids, pred, expandMore)
		}
		for ; pending > 0; pending-- {
			<-q.done
		}
		q.runs = q.runs[:0]
		for o := range q.replies {
			r := &q.replies[o]
			if r.err != nil {
				return nil, r.err
			}
			res.Matches = append(res.Matches, r.matches...)
			if len(r.neighbors) > 0 {
				q.runs = append(q.runs, r.neighbors)
			}
		}
		if !expandMore {
			break
		}
		// next = (union of the owners' runs) minus visited; then fold
		// next into visited through the spare buffer.
		next := subtract(frontier[:0], mergeRuns(q.runs, &q.tmp), q.visited)
		q.spare = mergeUnion(q.spare[:0], q.visited, next)
		q.visited, q.spare = q.spare, q.visited
		res.Levels = append(res.Levels, len(next))
		res.Visited += len(next)
		frontier = next
	}
	q.next = frontier[:0]
	return res, nil
}

// reply is one owner's answer to one expansion request.
type reply struct {
	matches, neighbors []uint64
	err                error
}

// coordScratch is one Explore call's reusable state, pooled across
// queries. Slices indexed by owner have one entry per machine.
type coordScratch struct {
	groups  [][]uint64 // frontier ids by owner
	reqs    [][]byte   // encoded request by owner
	replies []reply    // decoded reply by owner; its slices alias bufs
	bufs    [][]uint64 // decode buffer by owner
	local   []byte     // the coordinator's own reply
	done    chan struct{}

	runs           [][]uint64  // the level's non-empty neighbor runs
	tmp            [2][]uint64 // mergeRuns' buffers
	visited, spare []uint64    // ascending visited set, double-buffered
	next           []uint64    // frontier / next-level buffer
}

func newCoordScratch(machines int) *coordScratch {
	return &coordScratch{
		groups:  make([][]uint64, machines),
		reqs:    make([][]byte, machines),
		replies: make([]reply, machines),
		bufs:    make([][]uint64, machines),
		done:    make(chan struct{}, machines),
	}
}

// mergeRuns returns the union of ascending runs as one ascending run
// without duplicates: pairwise merges, log2(len(runs)) rounds, alternating
// between the two buffers of tmp. It reorders runs.
func mergeRuns(runs [][]uint64, tmp *[2][]uint64) []uint64 {
	if len(runs) == 0 {
		return nil
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	for round := 0; len(runs) > 1; round++ {
		b := slices.Grow(tmp[round&1][:0], total)
		merged := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			from := len(b)
			if i+1 < len(runs) {
				b = mergeUnion(b, runs[i], runs[i+1])
			} else {
				b = append(b, runs[i]...) // the next round reuses the buffer runs[i] may be in
			}
			merged = append(merged, b[from:len(b):len(b)])
		}
		tmp[round&1], runs = b, merged
	}
	return runs[0]
}

// mergeUnion appends to dst the union of two ascending runs, an id both
// hold once. The loop body is branch-free: which side advances is data
// the CPU cannot predict.
func mergeUnion(dst, a, b []uint64) []uint64 {
	k := len(dst)
	dst = slices.Grow(dst, len(a)+len(b))[:k+len(a)+len(b)]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		dst[k] = min(x, y)
		k++
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	k += copy(dst[k:], a[i:])
	k += copy(dst[k:], b[j:])
	return dst[:k]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// subtract appends to dst the ids of ascending run a that are not in
// ascending run b, branch-free like mergeUnion.
func subtract(dst, a, b []uint64) []uint64 {
	k := len(dst)
	dst = slices.Grow(dst, len(a))[:k+len(a)]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		dst[k] = x
		k += b2i(x < y)
		i += b2i(x <= y)
		j += b2i(y <= x)
	}
	k += copy(dst[k:], a[i:])
	return dst[:k]
}

// ExploreCells runs the same breadth-first exploration as Explore, but
// client-side over raw node cells through the coordinator's fetch
// pipeline instead of server-side through partition views. It is the
// paper's §4 latency-hiding pattern made concrete: the next hop's cell
// fetches are issued asynchronously while the current hop is still being
// processed, so remote reads batch into multi-get frames and overlap with
// the predicate work. Futures are consumed in strict FIFO issue order,
// which preserves level-synchronous BFS semantics — a node discovered at
// level L is always processed before anything discovered at L+1.
//
// Use Explore when partition views are warm (server-side CSR expansion
// ships only ids); use ExploreCells when the traversal must read the
// cells themselves anyway, where it replaces one blocking round trip per
// remote cell with a pipelined batch stream.
func (e *Engine) ExploreCells(ctx context.Context, via int, start uint64, hops int, pred Predicate) (*Result, error) {
	e.queries.Inc()
	qStart := time.Now()
	defer func() { e.exploreNs.Observe(int64(time.Since(qStart))) }()
	coord := e.g.On(via)
	f := coord.Fetcher()

	type item struct {
		id  uint64
		hop int
		fut *fetch.Future
	}
	visited := map[uint64]bool{start: true}
	queue := []item{{id: start, hop: 0, fut: f.GetAsync(start)}}
	res := &Result{Visited: 1}
	levelCounts := make([]int, hops)

	for head := 0; head < len(queue); head++ {
		it := queue[head]
		if err := ctx.Err(); err != nil {
			// Abandon the remaining futures: the pipeline resolves them
			// within one CallTimeout and nothing wedges (Wait unhooks only
			// this caller, the pending-map entries drain with their batch).
			return nil, err
		}
		select {
		case <-it.fut.Done():
		default:
			// About to block on the pipeline: push everything queued onto
			// the wire rather than waiting out the age watermark.
			f.Flush()
		}
		blob, err := it.fut.Wait(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			if it.id == start {
				return nil, fmt.Errorf("traversal: start node %d does not exist", start)
			}
			if errors.Is(err, memcloud.ErrNotFound) {
				continue // dangling edge target, same tolerance as Explore
			}
			return nil, err
		}
		n, err := graph.DecodeNode(it.id, blob)
		if err != nil {
			return nil, err
		}
		switch pred.Mode {
		case MatchLabel:
			if n.Label == pred.Label {
				res.Matches = append(res.Matches, it.id)
			}
		case MatchNamePrefix:
			if strings.HasPrefix(n.Name, pred.Prefix) {
				res.Matches = append(res.Matches, it.id)
			}
		}
		if it.hop >= hops {
			continue
		}
		e.expansions.Inc()
		for _, dst := range n.Outlinks {
			if visited[dst] {
				continue
			}
			visited[dst] = true
			levelCounts[it.hop]++
			res.Visited++
			// Issue the fetch at discovery: it rides a batch while this
			// level's remaining cells are processed.
			queue = append(queue, item{id: dst, hop: it.hop + 1, fut: f.GetAsync(dst)})
		}
	}
	// Mirror Explore's Levels bookkeeping: one entry per hop whose
	// frontier was non-empty and expanded (the last such entry may be 0).
	for h := 0; h < hops; h++ {
		if h > 0 && levelCounts[h-1] == 0 {
			break
		}
		res.Levels = append(res.Levels, levelCounts[h])
	}
	e.visited.Add(int64(res.Visited))
	return res, nil
}

// KHopNeighborhoodSize returns the number of distinct nodes within `hops`
// hops of start — the §5.1 benchmark operation.
func (e *Engine) KHopNeighborhoodSize(ctx context.Context, via int, start uint64, hops int) (int, error) {
	res, err := e.Explore(ctx, via, start, hops, Predicate{})
	if err != nil {
		return 0, err
	}
	return res.Visited, nil
}

// PeopleSearch finds nodes labeled with the interned first name within
// `hops` hops of start — the paper's Facebook/Bing "David problem".
func (e *Engine) PeopleSearch(ctx context.Context, via int, start uint64, firstNameLabel int64, hops int) ([]uint64, error) {
	res, err := e.Explore(ctx, via, start, hops, Predicate{Mode: MatchLabel, Label: firstNameLabel})
	if err != nil {
		return nil, err
	}
	return res.Matches, nil
}

// expand sends one frontier fragment to its owner (or serves it locally)
// and decodes the reply into the owner's buffer of q.
func (e *Engine) expand(ctx context.Context, q *coordScratch, coord *graph.Machine, owner msg.MachineID, ids []uint64, pred Predicate, expandMore bool) (matches, neighbors []uint64, err error) {
	e.expansions.Inc()
	req := encodeExpand(q.reqs[owner][:0], ids, pred, expandMore)
	q.reqs[owner] = req
	var resp []byte
	if owner == coord.Slave().ID() {
		resp, err = e.serve(ctx, coord, req, q.local[:0])
		q.local = resp
	} else {
		var lease *buf.Lease
		lease, resp, err = coord.Slave().Node().CallLease(ctx, owner, protoExpand, req)
		if err == nil {
			defer lease.Release()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	out, mc, err := decodeExpandResp(resp, q.bufs[owner][:0])
	if err != nil {
		return nil, nil, err
	}
	q.bufs[owner] = out
	return out[:mc], out[mc:], nil
}

// ownerScratch is one expansion's reusable state on the owner, pooled
// across requests. set is all zero between uses.
type ownerScratch struct {
	ids, matches []uint64
	set          []uint64 // one bit per view slot
	runs, merged []uint64 // neighbor IDs in slot order, then in ID order
}

// serve answers one expansion request on the owner machine through its
// partition view, appending the reply to dst. The predicate test is a
// dense array read (labels) or a zero-copy name read. Expansion sets one
// bit per out-edge slot of each frontier vertex, so duplicate and shared
// neighbors collapse, then reads the bits back in slot order as two
// ascending ID runs (local, remote) and merges them into the reply.
// Frontier ids absent from the view — dangling edge targets that were
// never created — are tolerated and skipped; a corrupt cell instead fails
// view acquisition.
func (e *Engine) serve(ctx context.Context, m *graph.Machine, req, dst []byte) ([]byte, error) {
	sc := e.ownerPool.Get().(*ownerScratch)
	defer e.ownerPool.Put(sc)
	ids, pred, expandMore, err := decodeExpand(req, sc.ids[:0])
	if err != nil {
		return nil, err
	}
	sc.ids = ids
	pv, err := view.Acquire(m)
	if err != nil {
		return nil, err
	}
	if words := (pv.NumSlots() + 63) / 64; len(sc.set) < words {
		sc.set = make([]uint64, words)
	}
	set := sc.set
	matches := sc.matches[:0]
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, id := range ids {
		idx, ok := pv.IndexOf(id)
		switch pred.Mode {
		case MatchLabel:
			// People search interns the name into the label, so the
			// whole predicate is one array read.
			if ok && pv.Label(idx) == pred.Label {
				matches = append(matches, id)
			}
		case MatchNamePrefix:
			if name, err := m.Name(ctx, id); err == nil && strings.HasPrefix(name, pred.Prefix) {
				matches = append(matches, id)
			}
		}
		if !ok || !expandMore {
			continue
		}
		for _, s := range pv.OutSlots(idx) {
			set[s>>6] |= 1 << (s & 63)
			lo, hi = min(lo, s), max(hi, s)
		}
	}
	sc.matches = matches
	// Read the touched words back in slot order, clearing them: local
	// slots come first, so runs[:local] and runs[local:] are each
	// ascending by ID.
	runs, local := sc.runs[:0], 0
	for w := int(lo >> 6); w <= int(hi>>6); w++ {
		for b := set[w]; b != 0; b &= b - 1 {
			s := uint32(w)<<6 | uint32(bits.TrailingZeros64(b))
			if int(s) < pv.NumVertices() {
				local++
			}
			runs = append(runs, pv.SlotID(s))
		}
		set[w] = 0
	}
	sc.runs = runs
	sc.merged = mergeUnion(sc.merged[:0], runs[:local], runs[local:])
	dst = slices.Grow(dst, 8+8*(len(matches)+len(runs)))
	return appendIDs(appendIDs(dst, matches), sc.merged), nil
}

// --- wire encoding ---
//
// Request: [expandMore u8: 0|1][mode u8][label u64][prefix len u32]
// [prefix][count u32][count × id u64]. Reply: [count u32][matches u64…]
// [count u32][neighbors u64…]. Every id list is strictly ascending and a
// frame has no trailing bytes; decoders reject anything else.

func encodeExpand(dst []byte, ids []uint64, pred Predicate, expandMore bool) []byte {
	dst = slices.Grow(dst, 18+len(pred.Prefix)+8*len(ids))
	if expandMore {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = append(dst, byte(pred.Mode))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pred.Label))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pred.Prefix)))
	dst = append(dst, pred.Prefix...)
	return appendIDs(dst, ids)
}

// decodeExpand decodes a request, appending its ids to dst.
func decodeExpand(b []byte, dst []uint64) ([]uint64, Predicate, bool, error) {
	var pred Predicate
	if len(b) < 14 || b[0] > 1 {
		return nil, pred, false, errors.New("traversal: bad expand request header")
	}
	expandMore := b[0] == 1
	pred.Mode = PredicateMode(b[1])
	pred.Label = int64(binary.LittleEndian.Uint64(b[2:]))
	plen := uint64(binary.LittleEndian.Uint32(b[10:]))
	if 14+plen > uint64(len(b)) {
		return nil, pred, false, errors.New("traversal: bad prefix length")
	}
	pred.Prefix = string(b[14 : 14+plen])
	ids, rest, err := decodeIDs(b[14+plen:], dst)
	if err == nil && len(rest) != 0 {
		err = errors.New("traversal: trailing bytes in expand request")
	}
	if err != nil {
		return nil, pred, false, err
	}
	return ids, pred, expandMore, nil
}

// decodeExpandResp decodes a reply, appending its matches and then its
// neighbors to dst; the first mc ids appended are the matches.
func decodeExpandResp(b []byte, dst []uint64) (out []uint64, mc int, err error) {
	base := len(dst)
	out, rest, err := decodeIDs(b, dst)
	if err != nil {
		return nil, 0, err
	}
	mc = len(out) - base
	out, rest, err = decodeIDs(rest, out)
	if err == nil && len(rest) != 0 {
		err = errors.New("traversal: trailing bytes in expand reply")
	}
	if err != nil {
		return nil, 0, err
	}
	return out[base:], mc, nil
}

// appendIDs appends a counted id list.
func appendIDs(dst []byte, ids []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, id)
	}
	return dst
}

// decodeIDs decodes a counted, strictly ascending id list from the front
// of b, appending the ids to dst, and returns what follows it.
func decodeIDs(b []byte, dst []uint64) ([]uint64, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("traversal: short id list")
	}
	count := uint64(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if 8*count > uint64(len(b)) {
		return nil, nil, errors.New("traversal: truncated id list")
	}
	for i := 0; i < int(count); i++ {
		id := binary.LittleEndian.Uint64(b[8*i:])
		if i > 0 && id <= dst[len(dst)-1] {
			return nil, nil, errors.New("traversal: id list not strictly ascending")
		}
		dst = append(dst, id)
	}
	return dst, b[8*count:], nil
}
