// Package view is the per-machine partition snapshot layer under
// Trinity's compute engines — the realization of the paper's §5.4 "local
// view": each machine materializes its partition of the graph once, in a
// compact immutable form, so jobs never re-touch cell storage (a trunk
// hash probe under the trunk mutex and a blob header decode) per vertex
// access.
//
// A View is a CSR snapshot of one machine's local vertices: dense
// local-index ↔ vertex-ID maps, out/in adjacency packed into shared
// neighbor arenas with offset arrays, per-vertex labels, and the
// remote/local bipartite split (which remote vertices
// feed which local targets) that the §5.4 hub-buffering pass consumes
// directly.
//
// The out arena is also kept as dense uint32 slots, so a caller can hold
// per-neighbor state in a bitset instead of a map: a local target's slot
// is its dense index, and a remote target's slot is NumVertices() plus
// its rank among the view's distinct remote targets, which are kept in
// ascending ID order. Slots therefore enumerate in two ascending ID runs,
// local then remote.
//
// Views are invalidated by epoch: every mutation of a machine's partition
// through the graph layer, and every recovery that moves trunks to or
// from the machine, moves graph.Machine.Epoch, and Acquire rebuilds
// lazily — concurrently trunk by trunk — when the cached snapshot's epoch
// no longer matches. A held View is never mutated; computations keep a
// stable snapshot while new Acquires observe new edges.
package view

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/obs"
)

// RemoteSource is one side of the bipartite split: a vertex that is not
// local to this machine but has out-edges into it. Targets are the dense
// local indices of the vertices it feeds.
type RemoteSource struct {
	ID      uint64
	Targets []int32
}

// View is an immutable CSR snapshot of one machine's partition. All
// returned slices alias internal arenas and must not be modified.
type View struct {
	epoch  uint64
	ids    []uint64         // dense local index -> vertex ID (ascending)
	index  map[uint64]int32 // vertex ID -> dense local index
	labels []int64

	outOff  []uint32 // len NumVertices()+1
	out     []uint64 // out-neighbor arena
	outSlot []uint32 // the out arena as slots, parallel to out
	outFar  []uint64 // slot NumVertices()+i -> distinct remote target (ascending)

	inOff []uint32
	in    []uint64 // in-neighbor arena

	remote []RemoteSource // sorted by ID

	// hits is the scope counter bumped when Acquire returns this cached
	// snapshot; carrying it here keeps the hot hit path free of registry
	// lookups.
	hits *obs.Counter
}

// NumVertices returns the number of local vertices.
func (v *View) NumVertices() int { return len(v.ids) }

// IDs returns the dense-index -> vertex-ID map (do not modify).
func (v *View) IDs() []uint64 { return v.ids }

// IDOf returns the vertex ID at dense local index idx.
func (v *View) IDOf(idx int) uint64 { return v.ids[idx] }

// IndexOf returns the dense local index of a vertex ID, and whether the
// vertex is local to this partition.
func (v *View) IndexOf(id uint64) (int, bool) {
	idx, ok := v.index[id]
	return int(idx), ok
}

// Label returns the label of the vertex at dense index idx.
func (v *View) Label(idx int) int64 { return v.labels[idx] }

// OutDegree returns the out-degree of the vertex at dense index idx.
func (v *View) OutDegree(idx int) int {
	return int(v.outOff[idx+1] - v.outOff[idx])
}

// InDegree returns the in-degree of the vertex at dense index idx. For
// graphs loaded undirected it is zero: neighbors live in Out on both
// endpoints.
func (v *View) InDegree(idx int) int {
	return int(v.inOff[idx+1] - v.inOff[idx])
}

// Out returns the out-neighbors of the vertex at dense index idx as a
// slice of the shared arena (do not modify; safe to retain).
func (v *View) Out(idx int) []uint64 {
	return v.out[v.outOff[idx]:v.outOff[idx+1]]
}

// NumSlots returns the number of out-edge slots: one per local vertex
// plus one per distinct remote out-neighbor.
func (v *View) NumSlots() int { return len(v.ids) + len(v.outFar) }

// OutSlots returns the out-neighbors of the vertex at dense index idx as
// slots, in the same order as Out (do not modify; safe to retain).
func (v *View) OutSlots(idx int) []uint32 {
	return v.outSlot[v.outOff[idx]:v.outOff[idx+1]]
}

// SlotID returns the vertex ID behind slot s.
func (v *View) SlotID(s uint32) uint64 {
	if n := uint32(len(v.ids)); s >= n {
		return v.outFar[s-n]
	}
	return v.ids[s]
}

// In returns the in-neighbors of the vertex at dense index idx.
func (v *View) In(idx int) []uint64 {
	return v.in[v.inOff[idx]:v.inOff[idx+1]]
}

// RemoteInSources returns the remote side of the bipartite split — every
// non-local vertex with at least one out-edge into this partition, with
// its local targets — sorted by vertex ID. The §5.4 hub-detection pass
// reads this directly instead of re-walking every local in-link list.
func (v *View) RemoteInSources() []RemoteSource { return v.remote }

// Acquire returns the machine's current partition snapshot, rebuilding it
// (concurrently, trunk by trunk) when the cached one predates the
// machine's epoch: a graph-layer mutation or a change to the trunks the
// slave holds. The returned View is immutable; callers may
// hold it across an arbitrary amount of work while newer Acquires observe
// newer epochs. Concurrent Acquires may race to build the same epoch;
// both produce equivalent snapshots and last-store wins.
func Acquire(m *graph.Machine) (*View, error) {
	epoch := m.Epoch()
	if v, ok := m.CachedView().(*View); ok && v != nil && v.epoch == epoch {
		v.hits.Inc()
		return v, nil
	}
	v, err := build(m, epoch)
	if err != nil {
		return nil, err
	}
	m.StoreView(v)
	return v, nil
}

// rec is one decoded vertex inside a trunk part, with spans into the
// part's arenas.
type rec struct {
	id             uint64
	label          int64
	outOff, outLen uint32
	inOff, inLen   uint32
}

// part accumulates one trunk's decoded vertices.
type part struct {
	recs []rec
	out  []uint64
	in   []uint64
	err  error
}

// mergeRec locates a vertex record across trunk parts during the merge;
// it carries the ID so the sort moves 16 bytes, not the whole rec.
type mergeRec struct {
	id        uint64
	part, rec int32
}

// build constructs a fresh snapshot of the machine's partition at the
// given epoch. The epoch is sampled by the caller BEFORE any trunk is
// read: a mutation racing the build lands in a later epoch and forces the
// next Acquire to rebuild, so a torn read can never be cached forever.
func build(m *graph.Machine, epoch uint64) (*View, error) {
	s := m.Slave()
	scope := s.Metrics().Scope("view")
	builds := scope.Counter("builds")
	buildNs := scope.Histogram("build_ns")
	start := time.Now()

	tids := s.LocalTrunkIDs()
	parts := make([]part, len(tids))
	workers := runtime.NumCPU()
	if workers > len(tids) {
		workers = len(tids)
	}
	if workers < 1 {
		workers = 1
	}
	trunkIdx := make(chan int, len(tids))
	for i := range tids {
		trunkIdx <- i
	}
	close(trunkIdx)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range trunkIdx {
				scanTrunk(s, tids[i], &parts[i])
			}
		}()
	}
	wg.Wait()
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}

	// Merge: dense indices are assigned in ascending vertex-ID order so
	// snapshots of an unchanged partition are deterministic.
	n, totalOut, totalIn := 0, 0, 0
	for i := range parts {
		n += len(parts[i].recs)
		totalOut += len(parts[i].out)
		totalIn += len(parts[i].in)
	}
	// Slots are uint32 too, and there are at most n+totalOut of them.
	if n+totalOut > math.MaxUint32 || totalIn > math.MaxUint32 {
		return nil, fmt.Errorf("view: partition exceeds %d edges", uint64(math.MaxUint32))
	}
	all := make([]mergeRec, 0, n)
	for pi := range parts {
		for ri, r := range parts[pi].recs {
			all = append(all, mergeRec{id: r.id, part: int32(pi), rec: int32(ri)})
		}
	}
	slices.SortFunc(all, func(a, b mergeRec) int { return cmp.Compare(a.id, b.id) })

	v := &View{
		epoch:  epoch,
		ids:    make([]uint64, n),
		index:  make(map[uint64]int32, n),
		labels: make([]int64, n),
		outOff: make([]uint32, n+1),
		out:    make([]uint64, 0, totalOut),
		inOff:  make([]uint32, n+1),
		in:     make([]uint64, 0, totalIn),
		hits:   scope.Counter("cache_hits"),
	}
	for i, gr := range all {
		p := &parts[gr.part]
		r := &p.recs[gr.rec]
		v.ids[i] = r.id
		v.index[r.id] = int32(i)
		v.labels[i] = r.label
		v.out = append(v.out, p.out[r.outOff:r.outOff+r.outLen]...)
		v.in = append(v.in, p.in[r.inOff:r.inOff+r.inLen]...)
		v.outOff[i+1] = uint32(len(v.out))
		v.inOff[i+1] = uint32(len(v.in))
	}
	v.outSlot, v.outFar = outSlots(v)
	v.remote = remoteSplit(v)

	builds.Inc()
	buildNs.Observe(int64(time.Since(start)))
	return v, nil
}

// scanTrunk decodes every cell of one trunk into the part's arenas.
func scanTrunk(s *memcloud.Slave, tid uint32, p *part) {
	s.ForEachInTrunk(tid, func(key uint64, payload []byte) bool {
		outStart, inStart := len(p.out), len(p.in)
		label, in, out, err := graph.AppendNodeLists(payload, p.in, p.out)
		if err != nil {
			p.err = fmt.Errorf("view: vertex %d: %w", key, err)
			return false
		}
		p.in, p.out = in, out
		p.recs = append(p.recs, rec{
			id:     key,
			label:  label,
			outOff: uint32(outStart),
			outLen: uint32(len(p.out) - outStart),
			inOff:  uint32(inStart),
			inLen:  uint32(len(p.in) - inStart),
		})
		return true
	})
}

// outSlots encodes the finished out arena as slots: a local target maps
// to its dense index; remote targets are numbered in first-seen order,
// then renumbered by ascending ID once all are known.
func outSlots(v *View) ([]uint32, []uint64) {
	slots := make([]uint32, len(v.out))
	var far []uint64
	farRank := make(map[uint64]uint32)
	for e, dst := range v.out {
		if idx, ok := v.index[dst]; ok {
			slots[e] = uint32(idx)
			continue
		}
		r, ok := farRank[dst]
		if !ok {
			r = uint32(len(far))
			farRank[dst] = r
			far = append(far, dst)
		}
		slots[e] = math.MaxUint32 - r // provisional; renumbered below
	}
	if len(far) == 0 {
		return slots, nil
	}
	// perm[first-seen rank] = slot of that target in ascending order.
	slices.Sort(far)
	perm := make([]uint32, len(far))
	n := uint32(len(v.ids))
	for i, id := range far {
		perm[farRank[id]] = n + uint32(i)
	}
	for e, s := range slots {
		if s >= n {
			slots[e] = perm[math.MaxUint32-s]
		}
	}
	return slots, far
}

// remoteSplit computes the bipartite split from the finished in arena:
// every in-neighbor that is not itself a local vertex is a remote source.
func remoteSplit(v *View) []RemoteSource {
	rmap := make(map[uint64][]int32)
	for idx := 0; idx < v.NumVertices(); idx++ {
		for _, srcID := range v.In(idx) {
			if _, ok := v.index[srcID]; !ok {
				rmap[srcID] = append(rmap[srcID], int32(idx))
			}
		}
	}
	if len(rmap) == 0 {
		return nil
	}
	out := make([]RemoteSource, 0, len(rmap))
	for id, targets := range rmap {
		out = append(out, RemoteSource{ID: id, Targets: targets})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
