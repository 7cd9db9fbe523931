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
// from the machine, moves one of graph.Machine.Epochs, and Acquire makes
// the next snapshot lazily when the cached one's epochs no longer match.
// One Acquire makes it while concurrent ones wait for it. When every step
// since the cached snapshot was an edge append (graph.Machine.EdgesSince),
// the next snapshot is derived from the cached one in one pass over its
// arenas; any other change means a full rebuild, concurrently trunk by
// trunk. A held View is never mutated; computations keep a stable
// snapshot while new Acquires observe new edges.
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
	// epoch and trunkGen are the machine's graph.Machine.Epochs the
	// snapshot reflects. exact reports that it holds exactly the edge
	// appends logged up to epoch, so the later log entries may be applied
	// to it (see build).
	epoch, trunkGen uint64
	exact           bool

	ids    []uint64         // dense local index -> vertex ID (ascending)
	index  map[uint64]int32 // vertex ID -> dense local index
	labels []int64

	outOff  []uint32 // len NumVertices()+1
	out     []uint64 // out-neighbor arena
	outSlot []uint32 // the out arena as slots, parallel to out
	outFar  []uint64 // slot NumVertices()+i -> distinct remote target (ascending)

	inOff []uint32
	in    []uint64 // in-neighbor arena

	remoteOnce sync.Once
	remote     []RemoteSource // sorted by ID; computed on first use

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
// reads this directly instead of re-walking every local in-link list. It
// is computed on the first call, so readers that never ask never pay.
func (v *View) RemoteInSources() []RemoteSource {
	v.remoteOnce.Do(func() { v.remote = remoteSplit(v) })
	return v.remote
}

// Acquire returns the machine's current partition snapshot, making a new
// one when the cached one predates the machine's epochs: a graph-layer
// mutation or a change to the trunks the slave holds. Concurrent Acquires
// of a new epoch wait for one snapshot. If only edge appends happened
// since the cached snapshot, the new one is derived from it; otherwise it
// is rebuilt from the trunks. The returned View is immutable; callers may
// hold it across an arbitrary amount of work while newer Acquires observe
// newer epochs.
func Acquire(m *graph.Machine) (*View, error) {
	if v := current(m); v != nil {
		v.hits.Inc()
		return v, nil
	}
	mu := m.ViewLock()
	mu.Lock()
	defer mu.Unlock()
	if v := current(m); v != nil {
		v.hits.Inc()
		return v, nil
	}
	if v := patch(m); v != nil {
		m.StoreView(v)
		return v, nil
	}
	v, err := build(m)
	if err != nil {
		return nil, err
	}
	m.StoreView(v)
	return v, nil
}

// current returns the cached snapshot if it is of the machine's current
// epochs, else nil.
func current(m *graph.Machine) *View {
	epoch, gen := m.Epochs()
	if v, ok := m.CachedView().(*View); ok && v != nil && v.epoch == epoch && v.trunkGen == gen {
		return v
	}
	return nil
}

// patch derives the next snapshot from the cached one and the edge log,
// or returns nil when it cannot: no exact cached snapshot, a trunk-set
// change, a structural mutation or a log restart since, or an append to
// a vertex the snapshot lacks.
func patch(m *graph.Machine) *View {
	old, _ := m.CachedView().(*View)
	if old == nil || !old.exact {
		return nil
	}
	if _, gen := m.Epochs(); gen != old.trunkGen {
		return nil
	}
	log, ok := m.EdgesSince(old.epoch)
	if !ok {
		return nil
	}
	scope := m.Slave().Metrics().Scope("view")
	start := time.Now()
	v := derive(old, log)
	if v != nil {
		scope.Counter("derives").Inc()
		scope.Histogram("derive_ns").Observe(int64(time.Since(start)))
	}
	return v
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

// build constructs a fresh snapshot of the machine's partition. The
// epochs are sampled BEFORE any trunk is read: a mutation racing the build
// lands in a later epoch and forces the next Acquire to make a new
// snapshot, so a torn read can never be cached forever. The snapshot is
// exact — a base later edge-log entries may be applied to — only if the
// graph epoch did not move across the scan and no edge append was
// between its trunk write and its log entry when the scan ended: such an
// append may be in the scan, and its log entry would add it a second time.
func build(m *graph.Machine) (*View, error) {
	epoch, gen := m.Epochs()
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
	exact := m.Settled(epoch)
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
		epoch:    epoch,
		trunkGen: gen,
		exact:    exact,
		ids:      make([]uint64, n),
		index:    make(map[uint64]int32, n),
		labels:   make([]int64, n),
		outOff:   make([]uint32, n+1),
		out:      make([]uint64, 0, totalOut),
		inOff:    make([]uint32, n+1),
		in:       make([]uint64, 0, totalIn),
		hits:     scope.Counter("cache_hits"),
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

	builds.Inc()
	buildNs.Observe(int64(time.Since(start)))
	return v, nil
}

// scanTrunk decodes every cell of one trunk into the part's arenas.
func scanTrunk(s *memcloud.Slave, tid uint32, p *part) {
	s.ForEachInTrunk(tid, p.add)
}

// add decodes one cell into the part's arenas. It is a method, not a
// closure in scanTrunk: the compiler inlines scanTrunk into its caller,
// and the copy of a closure made that way keeps the list reads out of
// line.
func (p *part) add(key uint64, payload []byte) bool {
	a, err := graph.NewGraphNodeAccessor(payload)
	if err != nil {
		p.err = fmt.Errorf("view: vertex %d: %w", key, err)
		return false
	}
	outStart, inStart := len(p.out), len(p.in)
	for in, i := a.Inlinks(), 0; i < in.Len(); i++ {
		p.in = append(p.in, in.At(i))
	}
	for out, i := a.Outlinks(), 0; i < out.Len(); i++ {
		p.out = append(p.out, out.At(i))
	}
	p.recs = append(p.recs, rec{
		id:     key,
		label:  a.Label(),
		outOff: uint32(outStart),
		outLen: uint32(len(p.out) - outStart),
		inOff:  uint32(inStart),
		inLen:  uint32(len(p.in) - inStart),
	})
	return true
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

// derive returns the snapshot old would become after the edge appends in
// log: each appended neighbor goes at the end of its vertex's list, in
// log order, as the trunk holds it. The vertex set is old's, so ids,
// index and labels are shared; the out and in arenas are copied once
// with the new entries spliced in, and the remote out-slots are
// renumbered when new remote targets join the ascending outFar table.
// The result equals a fresh build at the new epoch. It returns nil if an
// append names a vertex old does not hold, or the arenas would overflow
// their offsets.
func derive(old *View, log []graph.EdgeAppend) *View {
	n := len(old.ids)
	var outs, ins []neighborAt
	for _, e := range log {
		idx, ok := old.index[e.Node]
		if !ok {
			return nil
		}
		if e.Inlink {
			ins = append(ins, neighborAt{idx, e.Other})
		} else {
			outs = append(outs, neighborAt{idx, e.Other})
		}
	}
	if n+len(old.out)+len(outs) > math.MaxUint32 || len(old.in)+len(ins) > math.MaxUint32 {
		return nil
	}
	byVertex := func(a, b neighborAt) int { return cmp.Compare(a.idx, b.idx) }
	slices.SortStableFunc(outs, byVertex)
	slices.SortStableFunc(ins, byVertex)
	neighbor := func(a neighborAt) uint64 { return a.id }
	v := &View{
		epoch:    old.epoch + uint64(len(log)),
		trunkGen: old.trunkGen,
		exact:    true,
		ids:      old.ids,
		index:    old.index,
		labels:   old.labels,
		outOff:   growOffsets(old.outOff, outs),
		out:      splice(old.outOff, old.out, outs, neighbor),
		inOff:    growOffsets(old.inOff, ins),
		in:       splice(old.inOff, old.in, ins, neighbor),
		outFar:   old.outFar,
		hits:     old.hits,
	}

	// New remote targets join outFar in ID order; every old remote slot
	// moves up by the number of new targets below it.
	var fresh []uint64
	for _, a := range outs {
		if _, local := old.index[a.id]; local {
			continue
		}
		if _, found := slices.BinarySearch(old.outFar, a.id); !found {
			fresh = append(fresh, a.id)
		}
	}
	slots := old.outSlot
	if len(fresh) > 0 {
		slices.Sort(fresh)
		fresh = slices.Compact(fresh)
		v.outFar = make([]uint64, 0, len(old.outFar)+len(fresh))
		moved := make([]uint32, len(old.outFar))
		f := 0
		for r, id := range old.outFar {
			for ; f < len(fresh) && fresh[f] < id; f++ {
				v.outFar = append(v.outFar, fresh[f])
			}
			moved[r] = uint32(n + len(v.outFar))
			v.outFar = append(v.outFar, id)
		}
		v.outFar = append(v.outFar, fresh[f:]...)
		slots = make([]uint32, len(old.outSlot))
		for e, s := range old.outSlot {
			if s >= uint32(n) {
				s = moved[s-uint32(n)]
			}
			slots[e] = s
		}
	}
	v.outSlot = splice(old.outOff, slots, outs, func(a neighborAt) uint32 {
		if idx, local := old.index[a.id]; local {
			return uint32(idx)
		}
		r, _ := slices.BinarySearch(v.outFar, a.id)
		return uint32(n + r)
	})
	return v
}

// neighborAt is one appended neighbor id of the vertex at dense index idx.
type neighborAt struct {
	idx int32
	id  uint64
}

// growOffsets returns the CSR offsets off with each vertex's list grown
// by its entries in adds (sorted by vertex). It returns off itself when
// adds is empty.
func growOffsets(off []uint32, adds []neighborAt) []uint32 {
	if len(adds) == 0 {
		return off
	}
	grown := make([]uint32, len(off))
	k := 0
	for i, o := range off {
		for k < len(adds) && int(adds[k].idx) < i {
			k++
		}
		grown[i] = o + uint32(k)
	}
	return grown
}

// splice returns a copy of the CSR arena (laid out by off) with val(a)
// appended to the list of vertex a.idx for each a in adds (sorted by
// vertex, in order). It returns arena itself when adds is empty.
func splice[T uint32 | uint64](off []uint32, arena []T, adds []neighborAt, val func(neighborAt) T) []T {
	if len(adds) == 0 {
		return arena
	}
	dst := make([]T, len(arena)+len(adds))
	src, shift := uint32(0), uint32(0)
	for k := 0; k < len(adds); {
		i := adds[k].idx
		end := off[i+1]
		copy(dst[src+shift:], arena[src:end])
		for ; k < len(adds) && adds[k].idx == i; k++ {
			dst[end+shift] = val(adds[k])
			shift++
		}
		src = end
	}
	copy(dst[src+shift:], arena[src:])
	return dst
}
