package algo

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/hash"
	"trinity/internal/msg"
)

// Subgraph matching protocols.
const (
	protoScanLabel   msg.ProtocolID = 0x0601 // find local vertices with a label
	protoFilterLabel msg.ProtocolID = 0x0602 // filter ids by label
)

// Pattern is a small labeled query graph. Patterns are generated from the
// data graph (as in the paper's evaluation, following Sun et al. [32]),
// which guarantees at least one embedding exists.
type Pattern struct {
	// Labels[i] is the required label of query vertex i.
	Labels []int64
	// Out[i] lists the query vertices that i has an edge to.
	Out [][]int
}

// Size returns the number of query vertices.
func (p *Pattern) Size() int { return len(p.Labels) }

// edges returns all (from, to) pairs.
func (p *Pattern) edges() [][2]int {
	var out [][2]int
	for u, vs := range p.Out {
		for _, v := range vs {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// QueryGenMode selects how benchmark queries are extracted from the data
// graph: following out-edges depth-first (DFS) or by random expansion
// (RANDOM) — the two methods of Figure 8(a).
type QueryGenMode int

// Query generation modes.
const (
	GenDFS QueryGenMode = iota
	GenRandom
)

// GenerateQuery extracts a `size`-vertex pattern from the data graph.
// The subgraph induced on the walked vertices becomes the pattern, so the
// pattern is guaranteed to have at least one embedding (the walk itself).
func GenerateQuery(g *graph.Graph, size int, mode QueryGenMode, seed uint64) (*Pattern, error) {
	rng := hash.NewRNG(seed)
	// The walk can cross machine boundaries, so snapshot every partition
	// up front; lookups then resolve against the owner's view.
	views := make([]*view.View, g.Machines())
	for i := range views {
		v, err := view.Acquire(g.On(i))
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	anchor := g.On(0).Slave()
	outOf := func(id uint64) []uint64 {
		v := views[int(anchor.Owner(id))]
		if idx, ok := v.IndexOf(id); ok {
			return v.Out(idx)
		}
		return nil
	}
	labelOf := func(id uint64) (int64, bool) {
		v := views[int(anchor.Owner(id))]
		if idx, ok := v.IndexOf(id); ok {
			return v.Label(idx), true
		}
		return 0, false
	}
	ids := views[0].IDs()
	if len(ids) == 0 {
		return nil, errors.New("algo: machine 0 has no vertices to seed a query")
	}
	// Walk until `size` distinct vertices are collected.
	var chosen []uint64
	inChosen := map[uint64]bool{}
	add := func(id uint64) {
		if !inChosen[id] {
			inChosen[id] = true
			chosen = append(chosen, id)
		}
	}
	for attempt := 0; attempt < 100 && len(chosen) < size; attempt++ {
		chosen = chosen[:0]
		for k := range inChosen {
			delete(inChosen, k)
		}
		add(ids[rng.Intn(len(ids))])
		for len(chosen) < size {
			var from uint64
			switch mode {
			case GenDFS:
				from = chosen[len(chosen)-1] // extend from the newest
			default:
				from = chosen[rng.Intn(len(chosen))] // extend from anywhere
			}
			out := outOf(from)
			if len(out) == 0 {
				break // dead end; retry with a fresh seed vertex
			}
			next := out[rng.Intn(len(out))]
			if inChosen[next] {
				// Try to find any unvisited neighbor before giving up.
				found := false
				for _, cand := range out {
					if !inChosen[cand] {
						next, found = cand, true
						break
					}
				}
				if !found {
					break
				}
			}
			add(next)
		}
	}
	if len(chosen) < size {
		return nil, fmt.Errorf("algo: could not grow a %d-vertex query", size)
	}
	// Induce the pattern on the chosen vertices.
	index := map[uint64]int{}
	for i, id := range chosen {
		index[id] = i
	}
	p := &Pattern{Labels: make([]int64, size), Out: make([][]int, size)}
	for i, id := range chosen {
		label, ok := labelOf(id)
		if !ok {
			return nil, fmt.Errorf("algo: walked vertex %d vanished from its partition view", id)
		}
		p.Labels[i] = label
		for _, dst := range outOf(id) {
			if j, ok := index[dst]; ok {
				p.Out[i] = append(p.Out[i], j)
			}
		}
	}
	return p, nil
}

// Matcher answers subgraph-matching queries over a distributed graph with
// no structural index: candidates come from parallel label scans, and the
// search explores the memory cloud's adjacency directly (§5.2's "new
// paradigm": fast random access plus parallelism instead of super-linear
// indexes).
type Matcher struct {
	g *graph.Graph
}

// NewMatcher installs matching protocols on every machine.
func NewMatcher(g *graph.Graph) *Matcher {
	mt := &Matcher{g: g}
	for i := 0; i < g.Machines(); i++ {
		m := g.On(i)
		mm := m
		node := m.Slave().Node()
		node.HandleSync(protoScanLabel, func(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
			return mt.scanLabelLocal(mm, req)
		})
		node.HandleSync(protoFilterLabel, func(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
			return mt.filterLabelLocal(mm, req)
		})
	}
	return mt
}

// MatchBudget finds embeddings of the pattern, stopping after `limit`
// (0 = all). An embedding maps query vertex i to data vertex result[i];
// embeddings are injective. The search aborts (returning whatever it has
// found) after maxSteps candidate extensions across all workers; zero
// means no budget. The benchmark harness uses budgets so
// adversarial R-MAT hub structures cannot stall a sweep.
func (mt *Matcher) MatchBudget(ctx context.Context, via int, p *Pattern, limit, maxSteps int) ([][]uint64, error) {
	if p.Size() == 0 {
		return nil, nil
	}
	// Root: the query vertex with the most constraints (highest degree).
	root := rootOf(p)
	rootCands, err := mt.scanLabel(ctx, via, p.Labels[root])
	if err != nil {
		return nil, err
	}
	// The coordinator's partition view answers degree and adjacency for
	// locally-owned vertices in O(1); remote vertices fall back to the
	// wire protocols.
	pv, err := view.Acquire(mt.g.On(via))
	if err != nil {
		return nil, err
	}
	var (
		mu      sync.Mutex
		results [][]uint64
		firstEr error
	)
	var steps atomic.Int64
	stop := func() bool {
		if maxSteps > 0 && steps.Load() > int64(maxSteps) {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return limit > 0 && len(results) >= limit
	}
	const workers = 8
	var wg sync.WaitGroup
	chunk := (len(rootCands) + workers - 1) / workers
	if chunk == 0 {
		chunk = 1
	}
	for s := 0; s < len(rootCands); s += chunk {
		e := s + chunk
		if e > len(rootCands) {
			e = len(rootCands)
		}
		wg.Add(1)
		go func(cands []uint64) {
			defer wg.Done()
			st := &searchState{
				mt: mt, ctx: ctx, via: via, p: p, pv: pv,
				assign:   make([]uint64, p.Size()),
				assigned: make([]bool, p.Size()),
				used:     map[uint64]bool{},
				cells:    map[uint64]*graph.Node{},
				steps:    &steps,
				maxSteps: maxSteps,
				emit: func(match []uint64) bool {
					mu.Lock()
					results = append(results, append([]uint64(nil), match...))
					full := limit > 0 && len(results) >= limit
					mu.Unlock()
					return !full
				},
			}
			for _, c := range cands {
				if stop() {
					return
				}
				st.assign[root] = c
				st.assigned[root] = true
				st.used[c] = true
				if err := st.extend(1); err != nil && !errors.Is(err, errStop) {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				delete(st.used, c)
				st.assigned[root] = false
			}
		}(rootCands[s:e])
	}
	wg.Wait()
	return results, firstEr
}

var errStop = errors.New("algo: match limit reached")

// rootOf picks the query vertex with the highest (undirected) degree.
func rootOf(p *Pattern) int {
	deg := make([]int, p.Size())
	for u, vs := range p.Out {
		deg[u] += len(vs)
		for _, v := range vs {
			deg[v]++
		}
	}
	root := 0
	for i, d := range deg {
		if d > deg[root] {
			root = i
		}
	}
	return root
}

// searchState is one worker's backtracking state.
type searchState struct {
	mt       *Matcher
	ctx      context.Context
	via      int
	p        *Pattern
	pv       *view.View // the via machine's partition snapshot
	assign   []uint64
	assigned []bool
	used     map[uint64]bool
	cells    map[uint64]*graph.Node // read-through cache of remote cells
	steps    *atomic.Int64
	maxSteps int
	emit     func([]uint64) bool
}

// fetchCell resolves a vertex that is not in the coordinator's partition
// view, going through the cell-fetch pipeline with a per-worker
// read-through cache. Backtracking consults the same remote anchor many
// times — adjacency expansion plus one edge probe per assigned neighbor —
// and a single cached cell answers all of them with one round trip, where
// the old wire protocols paid one call each.
func (st *searchState) fetchCell(id uint64) (*graph.Node, error) {
	if n, ok := st.cells[id]; ok {
		return n, nil
	}
	n, err := st.mt.g.On(st.via).GetNode(st.ctx, id)
	if err != nil {
		return nil, err
	}
	st.cells[id] = n
	return n, nil
}

// hasEdge checks the data edge u -> v against the partition view when u
// is local, or u's cached cell when it is remote.
func (st *searchState) hasEdge(u, v uint64) (bool, error) {
	var out []uint64
	if idx, ok := st.pv.IndexOf(u); ok {
		out = st.pv.Out(idx)
	} else {
		n, err := st.fetchCell(u)
		if errors.Is(err, graph.ErrNoNode) {
			return false, nil // dangling candidate: no cell, no edges
		}
		if err != nil {
			return false, err
		}
		out = n.Outlinks
	}
	for _, dst := range out {
		if dst == v {
			return true, nil
		}
	}
	return false, nil
}

// anchorEdge describes one way to derive candidates for query vertex q:
// from assigned vertex `from`, following a pattern edge forward
// (from -> q) or backward (q -> from).
type anchorEdge struct {
	q       int
	from    int
	forward bool
}

// extend assigns the next query vertex, chosen dynamically as the one
// with the SMALLEST candidate list among all pattern edges anchored at
// already-assigned vertices. Dynamic ordering is what keeps the search
// polite on skewed graphs: a hub's enormous adjacency list is never used
// as a candidate list when any assigned neighbor offers a shorter one.
func (st *searchState) extend(depth int) error {
	if st.maxSteps > 0 && st.steps.Add(1) > int64(st.maxSteps) {
		return errStop
	}
	if err := st.ctx.Err(); err != nil {
		return err
	}
	if depth == st.p.Size() {
		if !st.emit(st.assign) {
			return errStop
		}
		return nil
	}
	// Collect anchor edges into unassigned vertices.
	var anchors []anchorEdge
	for u, vs := range st.p.Out {
		for _, v := range vs {
			switch {
			case st.assigned[u] && !st.assigned[v]:
				anchors = append(anchors, anchorEdge{q: v, from: u, forward: true})
			case !st.assigned[u] && st.assigned[v]:
				anchors = append(anchors, anchorEdge{q: u, from: v, forward: false})
			}
		}
	}
	g := st.mt.g.On(st.via)
	var best *anchorEdge
	bestSize := int(^uint(0) >> 1)
	for i := range anchors {
		a := &anchors[i]
		anchor := st.assign[a.from]
		var size int
		if idx, ok := st.pv.IndexOf(anchor); ok {
			// Locally-owned anchor: degree is two array reads on the view.
			if a.forward {
				size = st.pv.OutDegree(idx)
			} else {
				size = st.pv.InDegree(idx)
			}
		} else {
			// Remote anchor: the wire degree protocol.
			var err error
			if a.forward {
				size, err = g.OutDegree(st.ctx, anchor)
			} else {
				size, err = g.InDegree(st.ctx, anchor)
			}
			if err != nil {
				return err
			}
		}
		if size < bestSize {
			best, bestSize = a, size
		}
	}
	var q int
	var cands []uint64
	var err error
	if best == nil {
		// Disconnected remainder: seed the next component by label scan.
		for i := range st.assigned {
			if !st.assigned[i] {
				q = i
				break
			}
		}
		cands, err = st.mt.scanLabel(st.ctx, st.via, st.p.Labels[q])
	} else {
		q = best.q
		anchor := st.assign[best.from]
		if idx, ok := st.pv.IndexOf(anchor); ok {
			// Local anchor: candidates alias the CSR arena, no copy.
			if best.forward {
				cands = st.pv.Out(idx)
			} else {
				cands = st.pv.In(idx)
			}
		} else if n, ferr := st.fetchCell(anchor); ferr != nil {
			err = ferr
		} else if best.forward {
			cands = n.Outlinks
		} else {
			cands = n.Inlinks
		}
	}
	if err != nil {
		return err
	}
	cands, err = st.mt.filterLabel(st.ctx, st.via, cands, st.p.Labels[q])
	if err != nil {
		return err
	}
	for _, c := range cands {
		if st.used[c] {
			continue
		}
		ok, err := st.checkEdges(q, c)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		st.assign[q] = c
		st.assigned[q] = true
		st.used[c] = true
		err = st.extend(depth + 1)
		delete(st.used, c)
		st.assigned[q] = false
		if err != nil {
			return err
		}
	}
	return nil
}

// checkEdges verifies every pattern edge between q (tentatively mapped to
// c) and already-assigned vertices.
func (st *searchState) checkEdges(q int, c uint64) (bool, error) {
	for _, v := range st.p.Out[q] {
		if v != q && st.assigned[v] {
			ok, err := st.hasEdge(c, st.assign[v])
			if err != nil || !ok {
				return false, err
			}
		}
	}
	for u, vs := range st.p.Out {
		if !st.assigned[u] || u == q {
			continue
		}
		for _, v := range vs {
			if v == q {
				ok, err := st.hasEdge(st.assign[u], c)
				if err != nil || !ok {
					return false, err
				}
			}
		}
	}
	return true, nil
}

// --- distributed primitives ---

// scanLabel collects all data vertices with the label, scanning every
// machine in parallel (no index).
func (mt *Matcher) scanLabel(ctx context.Context, via int, label int64) ([]uint64, error) {
	coord := mt.g.On(via)
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], uint64(label))
	type reply struct {
		ids []uint64
		err error
	}
	ch := make(chan reply, mt.g.Machines())
	for i := 0; i < mt.g.Machines(); i++ {
		target := mt.g.On(i).Slave().ID()
		go func(target msg.MachineID) {
			var resp []byte
			var err error
			if target == coord.Slave().ID() {
				resp, err = mt.scanLabelLocal(coord, req[:])
			} else {
				resp, err = coord.Slave().Node().Call(ctx, target, protoScanLabel, req[:])
			}
			if err != nil {
				ch <- reply{nil, err}
				return
			}
			ch <- reply{decodeIDs(resp), nil}
		}(target)
	}
	var all []uint64
	for i := 0; i < mt.g.Machines(); i++ {
		r := <-ch
		if r.err != nil {
			return nil, r.err
		}
		all = append(all, r.ids...)
	}
	return all, nil
}

func (mt *Matcher) scanLabelLocal(m *graph.Machine, req []byte) ([]byte, error) {
	if len(req) != 8 {
		return nil, errors.New("algo: bad scan request")
	}
	label := int64(binary.LittleEndian.Uint64(req))
	pv, err := view.Acquire(m)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for idx := 0; idx < pv.NumVertices(); idx++ {
		if pv.Label(idx) == label {
			ids = append(ids, pv.IDOf(idx))
		}
	}
	return encodeIDs(ids), nil
}

// filterLabel keeps the ids whose label matches, batching by owner.
func (mt *Matcher) filterLabel(ctx context.Context, via int, ids []uint64, label int64) ([]uint64, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	coord := mt.g.On(via)
	perOwner := map[msg.MachineID][]uint64{}
	for _, id := range ids {
		o := coord.Slave().Owner(id)
		perOwner[o] = append(perOwner[o], id)
	}
	var out []uint64
	for owner, batch := range perOwner {
		req := make([]byte, 8+8*len(batch))
		binary.LittleEndian.PutUint64(req, uint64(label))
		for i, id := range batch {
			binary.LittleEndian.PutUint64(req[8+8*i:], id)
		}
		var resp []byte
		var err error
		if owner == coord.Slave().ID() {
			resp, err = mt.filterLabelLocal(coord, req)
		} else {
			resp, err = coord.Slave().Node().Call(ctx, owner, protoFilterLabel, req)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, decodeIDs(resp)...)
	}
	return out, nil
}

func (mt *Matcher) filterLabelLocal(m *graph.Machine, req []byte) ([]byte, error) {
	if len(req) < 8 {
		return nil, errors.New("algo: bad filter request")
	}
	label := int64(binary.LittleEndian.Uint64(req))
	pv, err := view.Acquire(m)
	if err != nil {
		return nil, err
	}
	var keep []uint64
	for off := 8; off+8 <= len(req); off += 8 {
		id := binary.LittleEndian.Uint64(req[off:])
		if idx, ok := pv.IndexOf(id); ok && pv.Label(idx) == label {
			keep = append(keep, id)
		}
	}
	return encodeIDs(keep), nil
}

func encodeIDs(ids []uint64) []byte {
	out := make([]byte, 8*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(out[8*i:], id)
	}
	return out
}

func decodeIDs(b []byte) []uint64 {
	ids := make([]uint64, 0, len(b)/8)
	for off := 0; off+8 <= len(b); off += 8 {
		ids = append(ids, binary.LittleEndian.Uint64(b[off:]))
	}
	return ids
}
