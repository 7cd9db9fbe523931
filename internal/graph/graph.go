package graph

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/msg"
)

// ErrNoNode reports that a node cell does not exist.
var ErrNoNode = errors.New("graph: no such node")

// codeNoNode is the wire code the edge and degree protocols tag ErrNoNode
// with, so the caller recognises it by code, not by message text. It sits
// outside memcloud's codes, whose errors a handler may pass through.
const codeNoNode byte = 0x20

// Graph protocol IDs (engine-internal, below tsl.ProtoUserBase). 0x0203
// was a whole-node read that the fetch pipeline replaced; the id stays
// retired so the others keep their wire values.
const (
	protoAddEdge   msg.ProtocolID = 0x0201
	protoAddInlink msg.ProtocolID = 0x0202
	protoDegrees   msg.ProtocolID = 0x0204
)

// Graph is a distributed graph over a memory cloud. One Machine engine
// runs per slave; any machine can serve any operation, with remote hops
// handled by one-sided protocols.
type Graph struct {
	Directed bool
	machines []*Machine
}

// Machine is the graph engine bound to one memory-cloud slave.
type Machine struct {
	g *Graph
	s *memcloud.Slave
	// stripes serialize read-modify-write mutations of local node cells;
	// plain reads need only the trunk's shared mutex.
	stripes [128]sync.Mutex
	// epoch counts mutations of this machine's local partition made
	// through the graph layer. Edge appends move it under logMu, one log
	// entry per step, so edgeLog[i] took the epoch from logBase+i to
	// logBase+i+1; a structural mutation moves it and empties the log.
	epoch   atomic.Uint64
	logMu   sync.Mutex
	edgeLog []EdgeAppend
	logBase uint64
	// appending counts edge appends between their trunk write and their
	// log entry (see Settled).
	appending atomic.Int64
	// viewCache is the partition-view layer's cache slot, typed any to
	// avoid an import cycle (graph/view imports graph); viewMu serializes
	// its (re)builds.
	viewCache atomic.Value
	viewMu    sync.Mutex
	// fetcher is the machine's batched cell-read pipeline, built lazily:
	// engines that never read remote cells never pay for it.
	fetchOnce sync.Once
	fetcher   *fetch.Fetcher
}

// New attaches a graph engine to every slave of the cloud.
func New(cloud *memcloud.Cloud, directed bool) *Graph {
	g := &Graph{Directed: directed}
	for i := 0; i < cloud.Slaves(); i++ {
		m := &Machine{g: g, s: cloud.Slave(i)}
		node := m.s.Node()
		node.HandleSync(protoAddEdge, m.onAddLink(false))
		node.HandleSync(protoAddInlink, m.onAddLink(true))
		node.HandleSync(protoDegrees, m.onDegrees)
		g.machines = append(g.machines, m)
	}
	return g
}

// Machines returns the number of machines in the graph's cluster.
func (g *Graph) Machines() int { return len(g.machines) }

// On returns the graph engine of machine i. Computation engines (BSP,
// traversal) work against a specific machine's local view.
func (g *Graph) On(i int) *Machine { return g.machines[i] }

// Slave returns the memory-cloud slave behind machine i.
func (m *Machine) Slave() *memcloud.Slave { return m.s }

// Fetcher returns the machine's batched cell-read pipeline, creating it
// on first use. All remote cell reads issued through this graph engine —
// GetNode, Outlinks, Label — flow through it, so concurrent readers on
// one machine share frames and coalesce duplicate keys.
func (m *Machine) Fetcher() *fetch.Fetcher {
	m.fetchOnce.Do(func() {
		m.fetcher = fetch.New(m.s, fetch.Options{Metrics: m.s.Metrics()})
	})
	return m.fetcher
}

// cellGet reads one cell through the fetch pipeline. The immediate Flush
// keeps the synchronous callers' latency at one round trip (no age-timer
// wait) while still letting concurrent readers ride the same frame.
func (m *Machine) cellGet(ctx context.Context, id uint64) ([]byte, error) {
	f := m.Fetcher()
	fu := f.GetAsync(id)
	select {
	case <-fu.Done():
		// Local (or coalesced, already-resolved) read: no wire traffic to
		// flush.
	default:
		f.Flush()
	}
	return fu.Wait(ctx)
}

// readCell runs fn over node id's cell wherever it lives: a zero-copy View
// on the owner, one fetch-pipeline read elsewhere. fn must not retain b. A
// missing cell reports ErrNoNode.
func (m *Machine) readCell(ctx context.Context, id uint64, fn func(b []byte) error) error {
	var err error
	if m.s.Owner(id) == m.s.ID() {
		err = m.s.View(id, fn)
	} else {
		var blob []byte
		if blob, err = m.cellGet(ctx, id); err == nil {
			err = fn(blob)
		}
	}
	if errors.Is(err, memcloud.ErrNotFound) {
		return fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	return err
}

func (m *Machine) stripe(id uint64) *sync.Mutex {
	return &m.stripes[hash.Mix64(id)&127]
}

// Epochs returns the machine's two partition epochs. graph moves on
// every mutation of a local node cell that flows through the graph layer
// (AddNode, PutNode, either endpoint of AddEdge landing here, a Builder
// flush, InvalidatePartition); trunks is Slave.TrunkGen, which moves when
// recovery moves trunks here or away. Both only grow. The partition-view
// layer (internal/graph/view) compares them against a cached snapshot's
// to decide whether the snapshot is stale.
func (m *Machine) Epochs() (graph, trunks uint64) { return m.epoch.Load(), m.s.TrunkGen() }

// EdgeAppend is one edge-list append on a local node: other went onto
// node's inlinks (Inlink) or outlinks.
type EdgeAppend struct {
	Node, Other uint64
	Inlink      bool
}

// edgeLogCap bounds the edge log. A full log starts over, after which a
// view older than the restart is rebuilt rather than patched.
const edgeLogCap = 4096

// EdgesSince returns a copy of the edge appends that moved the graph
// epoch from since to its current value, in the order each node's lists
// received them, and reports whether the log still covers that span.
// Every step between the two epochs is then an edge append: no structural
// mutation (InvalidatePartition and the mutators that call it) happened
// in between.
func (m *Machine) EdgesSince(since uint64) ([]EdgeAppend, bool) {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	if since < m.logBase || since > m.logBase+uint64(len(m.edgeLog)) {
		return nil, false
	}
	return slices.Clone(m.edgeLog[since-m.logBase:]), true
}

// Settled reports whether the graph epoch is still epoch and no edge
// append is between its trunk write and its log entry. A partition scan
// that started at epoch and finds Settled true afterwards saw exactly the
// appends the log holds up to epoch; otherwise it may hold an append
// whose log entry lands later, which replaying the log on top of the scan
// would add twice.
func (m *Machine) Settled(epoch uint64) bool {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	return m.appending.Load() == 0 && m.epoch.Load() == epoch
}

// InvalidatePartition bumps the mutation epoch as a structural change,
// marking any cached partition view of this machine stale and dropping
// the edge log, so the next view is a full rebuild. Code that mutates
// node cells through the memory cloud directly (bypassing the graph
// engine's mutators) must call it on the owner machine.
func (m *Machine) InvalidatePartition() {
	m.logMu.Lock()
	m.restartLogLocked()
	m.logMu.Unlock()
}

// restartLogLocked moves the epoch one step and empties the log at the
// new epoch.
func (m *Machine) restartLogLocked() {
	m.logBase = m.epoch.Add(1)
	m.edgeLog = m.edgeLog[:0]
}

// logAppend settles one edge append that ListAppend answered with err:
// an applied one is logged and moves the epoch, then it leaves the
// appending count. A failed log write may follow an applied append, so
// any other error than a missing node or trunk is a structural step.
func (m *Machine) logAppend(node, other uint64, inlink bool, err error) {
	m.logMu.Lock()
	switch {
	case err == nil && len(m.edgeLog) < edgeLogCap:
		m.edgeLog = append(m.edgeLog, EdgeAppend{Node: node, Other: other, Inlink: inlink})
		m.epoch.Add(1)
	case err == nil, !errors.Is(err, memcloud.ErrNotFound) && !errors.Is(err, memcloud.ErrWrongOwner):
		m.restartLogLocked()
	}
	m.appending.Add(-1)
	m.logMu.Unlock()
}

// CachedView returns the partition snapshot last stored by StoreView, or
// nil. The slot is owned by internal/graph/view; it lives here only
// because Go import cycles prevent the view package from hanging state
// off Machine itself.
func (m *Machine) CachedView() any { return m.viewCache.Load() }

// StoreView caches a partition snapshot on the machine.
func (m *Machine) StoreView(v any) { m.viewCache.Store(v) }

// ViewLock is the lock the partition-view layer holds while it makes the
// machine's next snapshot, so concurrent readers of a new epoch wait for
// one snapshot instead of each building their own.
func (m *Machine) ViewLock() *sync.Mutex { return &m.viewMu }

// ownerMachine returns the graph engine bound to the slave with the given
// machine id, or nil if no such machine is in this graph's cluster.
func (m *Machine) ownerMachine(id msg.MachineID) *Machine {
	for _, om := range m.g.machines {
		if om.s.ID() == id {
			return om
		}
	}
	return nil
}

// invalidateOwner bumps the partition epoch of the machine owning key.
func (m *Machine) invalidateOwner(key uint64) {
	if om := m.ownerMachine(m.s.Owner(key)); om != nil {
		om.InvalidatePartition()
	}
}

// AddNode creates a node cell. It can be called from any machine.
//
//reach:test-seam fixture: tests in algo, compute/* and graph/view build small graphs node by node
func (m *Machine) AddNode(ctx context.Context, n *Node) error {
	err := m.s.Add(ctx, n.ID, EncodeNode(n))
	if err == nil {
		m.invalidateOwner(n.ID)
	}
	return err
}

// PutNode creates or replaces a node cell.
func (m *Machine) PutNode(ctx context.Context, n *Node) error {
	err := m.s.Put(ctx, n.ID, EncodeNode(n))
	if err == nil {
		m.invalidateOwner(n.ID)
	}
	return err
}

// GetNode fetches and decodes a node from wherever it lives. Remote
// reads go through the fetch pipeline, so concurrent GetNode calls on
// one machine batch into shared frames.
func (m *Machine) GetNode(ctx context.Context, id uint64) (*Node, error) {
	blob, err := m.cellGet(ctx, id)
	if err != nil {
		if errors.Is(err, memcloud.ErrNotFound) {
			return nil, fmt.Errorf("%w: %d", ErrNoNode, id)
		}
		return nil, err
	}
	return DecodeNode(id, blob)
}

// AddEdge adds the edge src -> dst (or an undirected edge when the graph
// is undirected). Both endpoint cells must exist. The mutation executes on
// the owner machine of each endpoint, serialized by its write stripes.
func (m *Machine) AddEdge(ctx context.Context, src, dst uint64) error {
	if err := m.mutateEndpoint(ctx, src, dst, false); err != nil {
		return err
	}
	if m.g.Directed {
		return m.mutateEndpoint(ctx, dst, src, true)
	}
	return m.mutateEndpoint(ctx, dst, src, false)
}

// mutateEndpoint appends `other` to node's outlinks (inlink=false) or
// inlinks (inlink=true), routing to the node's owner.
func (m *Machine) mutateEndpoint(ctx context.Context, node, other uint64, inlink bool) error {
	owner := m.s.Owner(node)
	if owner == m.s.ID() {
		return m.addLinkLocal(node, other, inlink)
	}
	proto := protoAddEdge
	if inlink {
		proto = protoAddInlink
	}
	var req [16]byte
	binary.LittleEndian.PutUint64(req[:], node)
	binary.LittleEndian.PutUint64(req[8:], other)
	_, err := m.s.Node().Call(ctx, owner, proto, req[:])
	if msg.ErrorCode(err) == codeNoNode {
		return fmt.Errorf("%w: %d", ErrNoNode, node)
	}
	return err
}

// addLinkLocal appends other to a local node cell's link list in place:
// one exclusive trunk operation, no decode and no re-encode. The stripe
// holds the append, its WAL record and its edge-log entry together, so
// two appends to one node are logged in the order they were applied (WAL
// replay uses the count offsets they resolved; a view patched from the
// edge log lists them in trunk order). Outlinks is the tail list, so an
// outlink append moves no byte of the cell; an inlink append shifts the
// outlink section up.
func (m *Machine) addLinkLocal(node, other uint64, inlink bool) error {
	locate := locateGraphNodeOutlinks
	if inlink {
		locate = locateGraphNodeInlinks
	}
	var elem [8]byte
	binary.LittleEndian.PutUint64(elem[:], other)
	mu := m.stripe(node)
	mu.Lock()
	m.appending.Add(1)
	err := m.s.ListAppend(node, locate, elem[:])
	m.logAppend(node, other, inlink, err)
	mu.Unlock()
	if errors.Is(err, memcloud.ErrNotFound) {
		return fmt.Errorf("%w: %d", ErrNoNode, node)
	}
	return err
}

// onAddLink serves both edge protocols: the request names a local node
// and the neighbor to append to its outlinks, or to its inlinks.
func (m *Machine) onAddLink(inlink bool) msg.SyncHandler {
	return func(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
		if len(req) != 16 {
			return nil, errors.New("graph: bad add-link request")
		}
		node := binary.LittleEndian.Uint64(req)
		other := binary.LittleEndian.Uint64(req[8:])
		err := m.addLinkLocal(node, other, inlink)
		if errors.Is(err, ErrNoNode) {
			err = msg.WithCode(codeNoNode, err)
		}
		return nil, err
	}
}

// Outlinks returns the node's out-neighbors (copy).
//
//reach:test-seam tests in algo, compute/* and graph/view check adjacency against it
func (m *Machine) Outlinks(ctx context.Context, id uint64) ([]uint64, error) {
	return m.links(ctx, id, GraphNodeAccessor.Outlinks)
}

// Inlinks returns the node's in-neighbors (copy). For undirected graphs
// the inlink list is empty: neighbors live in Outlinks on both endpoints.
//
//reach:test-seam graph/view's tests check the in-arena against it
func (m *Machine) Inlinks(ctx context.Context, id uint64) ([]uint64, error) {
	return m.links(ctx, id, GraphNodeAccessor.Inlinks)
}

func (m *Machine) links(ctx context.Context, id uint64, list func(GraphNodeAccessor) Uint64List) ([]uint64, error) {
	var out []uint64
	err := m.readCell(ctx, id, func(b []byte) error {
		a, err := NewGraphNodeAccessor(b)
		if err != nil {
			return err
		}
		l := list(a)
		out = make([]uint64, l.Len())
		for i := range out {
			out[i] = l.At(i)
		}
		return nil
	})
	return out, err
}

// ForEachOutlink streams a LOCAL node's out-neighbors zero-copy — the
// GetOutlinks/Foreach pattern of the paper's API sketch and the hot path
// of every traversal. Remote nodes return ErrWrongOwner.
//
//reach:test-seam graph/view's benchmarks use the per-cell scan as the foil for the CSR scan
func (m *Machine) ForEachOutlink(id uint64, fn func(v uint64) bool) error {
	return m.s.View(id, func(b []byte) error { return forEachOutlink(b, fn) })
}

// forEachOutlink and forEachOutEdge are the loops of ForEachOutlink and
// ForEachOutEdge, kept out of their closures: the compiler inlines those
// two small methods into callers, and the copy of a closure made that way
// keeps every call in it (the list reads here) out of line.
func forEachOutlink(b []byte, fn func(v uint64) bool) error {
	a, err := NewGraphNodeAccessor(b)
	if err != nil {
		return err
	}
	for out, i := a.Outlinks(), 0; i < out.Len(); i++ {
		if !fn(out.At(i)) {
			return nil
		}
	}
	return nil
}

// ForEachOutEdge streams a LOCAL node's out-edges with weights. When the
// node carries no Weights list every edge reports weight 1.
func (m *Machine) ForEachOutEdge(id uint64, fn func(dst uint64, w int64) bool) error {
	return m.s.View(id, func(b []byte) error { return forEachOutEdge(b, fn) })
}

func forEachOutEdge(b []byte, fn func(dst uint64, w int64) bool) error {
	a, err := NewGraphNodeAccessor(b)
	if err != nil {
		return err
	}
	ws, out := a.Weights(), a.Outlinks()
	for i := 0; i < out.Len(); i++ {
		w := int64(1)
		if i < ws.Len() {
			w = ws.At(i)
		}
		if !fn(out.At(i), w) {
			return nil
		}
	}
	return nil
}

// localDegrees reads (outDegree, inDegree) off a LOCAL node's cell.
func (m *Machine) localDegrees(id uint64) (out, in int, err error) {
	err = m.s.View(id, func(b []byte) error {
		a, err := NewGraphNodeAccessor(b)
		if err == nil {
			out, in = a.Outlinks().Len(), a.Inlinks().Len()
		}
		return err
	})
	if errors.Is(err, memcloud.ErrNotFound) {
		err = fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	return out, in, err
}

// onDegrees serves the 8-byte degree summary of a local node; remote
// degree queries use this instead of shipping a whole (possibly hub-sized)
// cell across the wire.
func (m *Machine) onDegrees(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
	if len(req) != 8 {
		return nil, errors.New("graph: bad Degrees request")
	}
	out, in, err := m.localDegrees(binary.LittleEndian.Uint64(req))
	if errors.Is(err, ErrNoNode) {
		err = msg.WithCode(codeNoNode, err)
	}
	var resp [8]byte
	binary.LittleEndian.PutUint32(resp[0:], uint32(out))
	binary.LittleEndian.PutUint32(resp[4:], uint32(in))
	return resp[:], err
}

// degrees returns (outDegree, inDegree) for a node anywhere in the cloud.
func (m *Machine) degrees(ctx context.Context, id uint64) (int, int, error) {
	owner := m.s.Owner(id)
	if owner == m.s.ID() {
		return m.localDegrees(id)
	}
	var req [8]byte
	binary.LittleEndian.PutUint64(req[:], id)
	resp, err := m.s.Node().Call(ctx, owner, protoDegrees, req[:])
	if msg.ErrorCode(err) == codeNoNode {
		return 0, 0, fmt.Errorf("%w: %d", ErrNoNode, id)
	}
	if err != nil || len(resp) != 8 {
		if err == nil {
			err = errors.New("graph: short Degrees response")
		}
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(resp[0:])), int(binary.LittleEndian.Uint32(resp[4:])), nil
}

// OutDegree returns the node's out-degree without copying links.
func (m *Machine) OutDegree(ctx context.Context, id uint64) (int, error) {
	out, _, err := m.degrees(ctx, id)
	return out, err
}

// InDegree returns the node's in-degree without copying links.
func (m *Machine) InDegree(ctx context.Context, id uint64) (int, error) {
	_, in, err := m.degrees(ctx, id)
	return in, err
}

// Label returns the node's label.
func (m *Machine) Label(ctx context.Context, id uint64) (int64, error) {
	var label int64
	err := m.readCell(ctx, id, func(b []byte) error {
		a, err := NewGraphNodeAccessor(b)
		if err == nil {
			label = a.Label()
		}
		return err
	})
	return label, err
}

// Name returns the node's name.
func (m *Machine) Name(ctx context.Context, id uint64) (string, error) {
	var name string
	err := m.readCell(ctx, id, func(b []byte) error {
		a, err := NewGraphNodeAccessor(b)
		if err == nil {
			name = a.Name()
		}
		return err
	})
	return name, err
}

// LocalNodeIDs returns the IDs of all nodes stored on this machine.
func (m *Machine) LocalNodeIDs() []uint64 {
	return m.s.LocalKeys()
}

// ForEachLocalNode iterates the machine's local nodes zero-copy. The blob
// passed to fn must not be retained.
func (m *Machine) ForEachLocalNode(fn func(id uint64, blob []byte) bool) {
	m.s.ForEachLocal(fn)
}

// NodeCount returns the total node count across all machines.
func (g *Graph) NodeCount() int {
	total := 0
	for _, m := range g.machines {
		total += len(m.LocalNodeIDs())
	}
	return total
}

// EdgeCount returns the total directed edge count (out-edges summed).
func (g *Graph) EdgeCount() int {
	total := 0
	for _, m := range g.machines {
		m.ForEachLocalNode(func(_ uint64, blob []byte) bool {
			if a, err := NewGraphNodeAccessor(blob); err == nil {
				total += a.Outlinks().Len()
			}
			return true
		})
	}
	return total
}
