// Package bsp implements Trinity's vertex-centric offline computation
// engine (paper §5.3): synchronous supersteps in the Pregel style, with
// the restrictive-model optimizations of §5.4.
//
// In the restrictive model a vertex exchanges messages only with a fixed
// set of vertices (its neighbors), which makes the communication pattern
// predictable. The engine exploits this with two §5.4 mechanisms:
//
//   - Message combining: every Program supplies Combine, and messages to
//     the same destination vertex are combined at the sender and on
//     arrival. Each compute goroutine keeps a dense outbox over the view's
//     remote out-edge slots, so a remote target gets at most one (id,
//     value) pair per sending machine per superstep, and each vertex has
//     one mailbox word per superstep rather than a message list.
//
//   - Hub-vertex buffering with action scripts: before the first
//     superstep, each machine reads the remote side of its partition
//     view's bipartite split, finds remote source vertices that feed many
//     local targets (hubs), and sends the hub's owner an action script
//     subscribing to that hub. During execution, a hub's broadcast value
//     crosses the wire once per subscribed machine instead of once per
//     edge; the receiving machine fans it out locally. For a scale-free
//     graph, "even if we buffer messages from just 1% hub vertices, we
//     have addressed 72.8% of message needs".
//
// All per-vertex state is dense: the engine acquires each machine's
// partition view (internal/graph/view) at construction and indexes
// values, activity, mailboxes and hub subscriptions by the view's dense
// local index. A broadcast walks the view's out-edge slots: a local
// target's slot is its dense index, so it is delivered with no owner or
// index lookup, and a remote slot's owner is resolved once per engine.
// Cell storage is not touched again after the snapshot is built.
//
// After compute, each machine ships every remote owner its combined pairs
// as protoVertexMsg payloads: runs of 16-byte (id, value) pairs in
// strictly ascending id order, at most maxBatchPairs to a payload. A
// receiver rejects a malformed payload whole and counts it
// (batches_rejected); it never applies part of one.
//
// Counters: messages_sent counts logical messages, one per out-edge of a
// broadcast (termination relies on it); messages_wire counts what crossed
// the wire, one per combined pair and one per hub copy; messages_combined
// counts the merges made by Combine at the sender and at the receiver;
// messages_dropped counts messages to vertices absent from the snapshot.
// A dangling target owned by the sender's machine is dropped once per
// edge, a remote one once per combined pair, at its owner.
//
// Supersteps end with a marker-based barrier: per-sender FIFO ordering of
// the transport guarantees that a StepDone marker arrives after all of the
// sender's vertex messages.
package bsp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/buf"
	"trinity/internal/graph"
	"trinity/internal/graph/view"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// inboxShards is the stripe count of the per-machine mailbox locks.
const inboxShards = 64

// pairBytes is the wire size of one (id, value) pair.
const pairBytes = 16

// maxBatchPairs bounds a protoVertexMsg payload so that one payload, with
// msg's batch headers, fits the packer's default 64 KiB lease.
const maxBatchPairs = (64<<10 - pairBytes) / pairBytes

// errScriptsClosed answers an action script that arrives after hub
// set-up: subscriptions never change under a running superstep.
var errScriptsClosed = errors.New("bsp: action script after hub set-up")

// Engine protocol IDs (below tsl.ProtoUserBase, above the graph range).
const (
	protoVertexMsg msg.ProtocolID = 0x0301 + iota
	protoHubMsg
	protoStepDone
	protoActionScript
)

// Program is a vertex program in the restrictive vertex-centric model.
// Vertex values and messages are float64 (sufficient for the paper's
// workloads: PageRank ranks, BFS levels); richer state belongs in cells
// via the TSL accessors.
type Program interface {
	// Init returns the initial value of a vertex and whether it starts
	// active.
	Init(id uint64, outDegree int) (val float64, active bool)
	// Compute processes the vertex for one superstep. It may send
	// messages through ctx and returns the new value and whether the
	// vertex votes to halt. Compute is invoked for a vertex when it is
	// active or has a pending message; msgs holds the combined message,
	// or nothing.
	Compute(ctx *Context, id uint64, val float64, msgs []float64) (newVal float64, halt bool)
	// Combine merges two messages addressed to the same vertex (sum for
	// PageRank, min for BFS). Arrival order is not fixed, so it must be
	// commutative and associative.
	Combine(a, b float64) float64
}

// Options configures a run.
type Options struct {
	// MaxSupersteps bounds the run. Zero means 1<<30.
	MaxSupersteps int
	// HubThreshold enables hub-vertex buffering: a remote source feeding
	// at least this many local targets is subscribed via an action
	// script. Zero disables the optimization.
	HubThreshold int
}

// Context carries per-superstep operations for the vertices of one
// compute goroutine. It is not safe to share across goroutines.
type Context struct {
	w       *worker
	self    uint64
	selfIdx int // dense local index of self in the partition view
	step    int

	// The outbox: one combined message per remote out-edge slot, indexed
	// by slot - NumVertices, and a bitset saying it is there. Shipped and
	// cleared after the step's compute.
	out    []float64
	outHas []uint64

	// This goroutine's message counts for the step, folded into the
	// engine's by ship.
	sent, wire, combined, dropped int64

	// Contexts sit side by side in one array and run on different
	// goroutines: keep their counters off each other's cache lines.
	_ [64]byte
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.step }

// SendToAllOut broadcasts m along all out-edges — the restrictive-model
// pattern ("Outlinks.Foreach"). A local target's mailbox takes m at once;
// a remote target's is combined into this goroutine's outbox and shipped
// after compute. If remote machines have subscribed to this vertex as a
// hub, they receive one copy each and the edges into them send nothing.
func (c *Context) SendToAllOut(m float64) {
	w := c.w
	subs := w.subscribers(c.selfIdx)
	if len(subs) > 0 {
		var hub [pairBytes]byte
		binary.LittleEndian.PutUint64(hub[0:], c.self)
		binary.LittleEndian.PutUint64(hub[8:], math.Float64bits(m))
		node := w.m.Slave().Node()
		for i, word := range subs {
			for ; word != 0; word &= word - 1 {
				c.wire++
				node.Send(msg.MachineID(64*i+bits.TrailingZeros64(word)), protoHubMsg, hub[:])
			}
		}
	}
	n := uint32(w.pv.NumVertices())
	slots := w.pv.OutSlots(c.selfIdx)
	c.sent += int64(len(slots))
	for _, s := range slots {
		if s < n {
			w.deliver(int(s), m)
			continue
		}
		r := s - n
		switch owner := w.farOwner[r]; {
		case owner == w.id:
			// Owned here but absent from the snapshot: the vertex did
			// not exist when the engine was built. Count, don't crash.
			c.dropped++
		case len(subs) > 0 && subs[owner/64]>>(owner%64)&1 != 0:
			// Carried by the hub copy.
		case c.outHas[r/64]>>(r%64)&1 != 0:
			c.out[r] = w.e.prog.Combine(c.out[r], m)
			c.combined++
		default:
			c.out[r] = m
			c.outHas[r/64] |= 1 << (r % 64)
		}
	}
}

// OutDegree returns the current vertex's out-degree.
func (c *Context) OutDegree() int {
	return c.w.pv.OutDegree(c.selfIdx)
}

// Engine runs vertex programs over a distributed graph. One worker is
// attached to every machine; Run drives them through synchronized
// supersteps with machine 0 acting as coordinator.
type Engine struct {
	g       *graph.Graph
	opts    Options
	prog    Program // set by Run
	workers []*worker
	prepErr error // partition-view acquisition failure, surfaced by Run

	totalVertices int

	metrics engineMetrics
}

// engineMetrics are the engine's registry-backed counters, created
// eagerly at construction (scope "bsp" on the cloud's registry) so a
// snapshot lists them even before the first Run. Counters are cumulative
// across runs sharing one cloud.
type engineMetrics struct {
	supersteps    *obs.Counter
	msgsSent      *obs.Counter // logical vertex messages
	msgsWire      *obs.Counter // messages that crossed the wire
	msgsCombined  *obs.Counter // messages merged by the combiner, at sender and receiver
	msgsDropped   *obs.Counter // messages to vertices absent from the snapshot
	rejected      *obs.Counter // malformed vertex payloads, discarded whole
	hubRetries    *obs.Counter // action-script calls that needed a retry
	hubFailures   *obs.Counter // action-script subscriptions abandoned after retry
	runsCancelled *obs.Counter // Run calls that returned a context error
	activeVerts   *obs.Gauge
	superstepNs   *obs.Histogram
	computeNs     *obs.Histogram // the compute phase of a superstep
	barrierNs     *obs.Histogram // the marker wait that follows it
}

// stripe guards the next-step mailboxes of the vertices whose index is
// congruent to its position modulo inboxShards, and counts the combiner
// merges made under it. One cache line each.
type stripe struct {
	sync.Mutex
	merged int64
	_      [48]byte
}

// worker is the per-machine execution state. Vertex state is dense,
// indexed by the partition view's local index.
type worker struct {
	e  *Engine
	m  *graph.Machine
	id msg.MachineID
	pv *view.View

	values []float64
	active []bool

	// Mailboxes: one combined message per vertex and a flag saying it is
	// there. cur is read by this step's Compute; next is filled by this
	// step's deliveries under the stripe locks. After the barrier the
	// superstep swaps them and clears the new next's flags.
	cur, next       []float64
	curHas, nextHas []bool
	stripes         [inboxShards]stripe

	// farOwner maps a remote out-edge slot, less NumVertices, to the
	// machine that owns its target.
	farOwner []msg.MachineID

	// ctxs are the compute goroutines' contexts, outboxes included: one
	// per shard, allocated once per engine. batches holds, per remote
	// owner, the payload being filled while the outboxes are shipped.
	ctxs    []Context
	batches []batch

	// Hub optimization state. hubSubs changes only while scriptsOpen,
	// which hub set-up holds under doneMu.
	hubSources  map[uint64][]int32 // remote hub -> dense local targets
	hubSubs     []uint64           // local vertex -> bitmask of subscribed machines, subWords words each
	subWords    int
	scriptsOpen bool

	sentWire  atomic.Int64 // messages that crossed the wire (cumulative)
	sentTotal atomic.Int64 // logical messages this step, taken at its end
	lastWire  atomic.Int64 // sentWire at the end of the previous step

	doneMu   sync.Mutex
	doneFrom map[msg.MachineID]bool
	doneCond *sync.Cond
}

// settled checks that the graph's vertices all live on live machines:
// the addressing table gives a killed machine no trunk, and every live
// machine holds exactly the trunks the table gives it. Between a kill
// and the end of its recovery this fails, so a run reports the failure
// instead of computing over part of the graph.
func settled(g *graph.Graph) error {
	ref := 0
	for ref < g.Machines() && !g.On(ref).Slave().Alive() {
		ref++
	}
	if ref == g.Machines() {
		return errors.New("bsp: no live machine")
	}
	table := g.On(ref).Slave().Table()
	for i := 0; i < g.Machines(); i++ {
		s := g.On(i).Slave()
		want := table.TrunksOf(s.ID())
		if !s.Alive() {
			if len(want) > 0 {
				return fmt.Errorf("bsp: machine %d is down and recovery has not moved its %d trunks yet", i, len(want))
			}
			continue
		}
		held := s.LocalTrunkIDs()
		slices.Sort(held)
		if !slices.Equal(held, want) {
			return fmt.Errorf("bsp: machine %d holds %d trunks, the addressing table gives it %d: recovery pending", i, len(held), len(want))
		}
	}
	return nil
}

// New builds an engine over the graph's live machines. The graph must be
// fully loaded: each live machine's partition view is acquired now, and
// all per-vertex state is dense against that snapshot. A view acquisition
// failure (e.g. a corrupt cell), or a machine failure that recovery has
// not settled yet, is reported by the first Run call.
func New(g *graph.Graph, opts Options) *Engine {
	if opts.MaxSupersteps <= 0 {
		opts.MaxSupersteps = 1 << 30
	}
	e := &Engine{g: g, opts: opts}
	scope := g.On(0).Slave().Metrics().Scope("bsp")
	e.metrics = engineMetrics{
		supersteps:    scope.Counter("supersteps"),
		msgsSent:      scope.Counter("messages_sent"),
		msgsWire:      scope.Counter("messages_wire"),
		msgsCombined:  scope.Counter("messages_combined"),
		msgsDropped:   scope.Counter("messages_dropped"),
		rejected:      scope.Counter("batches_rejected"),
		hubRetries:    scope.Counter("hub_script_retries"),
		hubFailures:   scope.Counter("hub_script_failures"),
		runsCancelled: scope.Counter("runs_cancelled"),
		activeVerts:   scope.Gauge("active_vertices"),
		superstepNs:   scope.Histogram("superstep_ns"),
		computeNs:     scope.Histogram("superstep.compute_ns"),
		barrierNs:     scope.Histogram("superstep.barrier_ns"),
	}
	// Vertex computation is embarrassingly parallel within a machine:
	// each machine shards its vertices across a small pool.
	shards := max(runtime.NumCPU()/g.Machines(), 1)
	if e.prepErr = settled(g); e.prepErr != nil {
		return e
	}
	for i := 0; i < g.Machines(); i++ {
		m := g.On(i)
		if !m.Slave().Alive() {
			continue // settled: recovery has moved all its trunks away
		}
		pv, err := view.Acquire(m)
		if err != nil {
			e.prepErr = fmt.Errorf("bsp: machine %d partition view: %w", i, err)
			return e
		}
		n := pv.NumVertices()
		w := &worker{
			e:        e,
			m:        m,
			id:       m.Slave().ID(),
			pv:       pv,
			values:   make([]float64, n),
			active:   make([]bool, n),
			cur:      make([]float64, n),
			next:     make([]float64, n),
			curHas:   make([]bool, n),
			nextHas:  make([]bool, n),
			farOwner: make([]msg.MachineID, pv.NumSlots()-n),
			doneFrom: make(map[msg.MachineID]bool),
		}
		for j := range w.farOwner {
			w.farOwner[j] = m.Slave().Owner(pv.SlotID(uint32(n + j)))
		}
		w.doneCond = sync.NewCond(&w.doneMu)
		e.totalVertices += n
		node := m.Slave().Node()
		node.HandleAsync(protoVertexMsg, w.onVertexMsg)
		node.HandleAsync(protoHubMsg, w.onHubMsg)
		node.HandleAsync(protoStepDone, w.onStepDone)
		node.HandleSync(protoActionScript, w.onActionScript)
		e.workers = append(e.workers, w)
	}
	// The compute goroutines' contexts and outboxes, and the payloads
	// being filled: one allocation each for the whole engine.
	var slots, words int
	for _, w := range e.workers {
		slots += len(w.farOwner)
		words += (len(w.farOwner) + 63) / 64
	}
	ctxs := make([]Context, shards*len(e.workers))
	out := make([]float64, shards*slots)
	has := make([]uint64, shards*words)
	// Payloads and hub subscriptions are indexed by machine ID.
	machines := g.Machines()
	batches := make([]batch, len(e.workers)*machines)
	for _, w := range e.workers {
		r, nw := len(w.farOwner), (len(w.farOwner)+63)/64
		w.ctxs, ctxs = ctxs[:shards:shards], ctxs[shards:]
		w.batches, batches = batches[:machines:machines], batches[machines:]
		for i := range w.ctxs {
			c := &w.ctxs[i]
			c.w = w
			c.out, out = out[:r:r], out[r:]
			c.outHas, has = has[:nw:nw], has[nw:]
		}
	}
	return e
}

// Run executes the program to convergence (all vertices halted and no
// messages in flight) or MaxSupersteps, returning the number of
// supersteps executed.
//
// Cancellation is observed at superstep granularity plus compute-phase
// poll points: when ctx fires, workers stop computing within ~1024
// vertices, the marker barrier unblocks, and Run returns ctx.Err(). The
// engine is not reusable after a cancelled run (matching every other
// error return).
func (e *Engine) Run(ctx context.Context, p Program) (int, error) {
	if e.prepErr != nil {
		return 0, e.prepErr
	}
	e.prog = p
	// The barrier watcher: workers parked on their marker conds cannot
	// select on ctx, so one goroutine turns ctx.Done into a broadcast.
	// Waiters re-check ctx.Err in their loop condition and bail out.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			for _, w := range e.workers {
				w.doneMu.Lock()
				w.doneCond.Broadcast()
				w.doneMu.Unlock()
			}
		case <-watchDone:
		}
	}()
	e.initVertices()
	if e.opts.HubThreshold > 0 {
		e.setupHubSubscriptions(ctx)
	}
	step := 0
	for ; step < e.opts.MaxSupersteps; step++ {
		if err := ctx.Err(); err != nil {
			e.metrics.runsCancelled.Inc()
			return step, err
		}
		active, sent, err := e.superstep(ctx, step)
		if err != nil {
			if ctx.Err() != nil {
				e.metrics.runsCancelled.Inc()
			}
			return step, err
		}
		if active == 0 && sent == 0 {
			return step + 1, nil
		}
	}
	return step, nil
}

// initVertices runs Program.Init on every vertex in parallel. Degrees
// come from the partition view, so Init can no longer silently observe a
// degree-0 fallback on a decode error: a corrupt cell fails view
// acquisition in New instead.
func (e *Engine) initVertices() {
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for idx, id := range w.pv.IDs() {
				val, active := e.prog.Init(id, w.pv.OutDegree(idx))
				w.values[idx] = val
				w.active[idx] = active
			}
		}(w)
	}
	wg.Wait()
}

// Values returns a merged snapshot of all vertex values. Intended for
// result collection after Run.
func (e *Engine) Values() map[uint64]float64 {
	out := make(map[uint64]float64, e.totalVertices)
	for _, w := range e.workers {
		for idx, id := range w.pv.IDs() {
			out[id] = w.values[idx]
		}
	}
	return out
}

// WireMessages returns the cumulative number of messages that actually
// crossed the wire: one per (id, value) pair combined at the sender, so a
// remote target counts at most once per sending machine per superstep,
// and one per hub copy, so a hub's fan-out counts once per subscribed
// machine. The hub ablation benchmark compares this against logical
// messages.
func (e *Engine) WireMessages() int64 {
	var total int64
	for _, w := range e.workers {
		total += w.sentWire.Load()
	}
	return total
}

// superstep drives one synchronized superstep across all machines.
func (e *Engine) superstep(ctx context.Context, step int) (int64, int64, error) {
	start := time.Now()
	defer func() { e.metrics.superstepNs.Observe(int64(time.Since(start))) }()
	// Phase 1: compute all machines in parallel.
	var wg sync.WaitGroup
	errCh := make(chan error, len(e.workers))
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if err := w.computePhase(ctx, step); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	computed := time.Now()
	e.metrics.computeNs.Observe(int64(computed.Sub(start)))
	select {
	case err := <-errCh:
		return 0, 0, err
	default:
	}
	// Phase 2: barrier — wait for all markers on every machine. The wait
	// is ctx-aware: a peer that was cancelled (or whose markers a chaotic
	// transport ate) must not park this run forever.
	var err error
	for _, w := range e.workers {
		if err = w.waitForMarkers(ctx, len(e.workers)-1); err != nil {
			break
		}
	}
	e.metrics.barrierNs.Observe(int64(time.Since(computed)))
	if err != nil {
		return 0, 0, err
	}
	// Phase 3: make this step's deliveries the next step's input, and
	// reduce counters on the coordinator.
	var active, sent int64
	for _, w := range e.workers {
		e.metrics.msgsCombined.Add(w.rotate())
		for idx, a := range w.active {
			if a || w.curHas[idx] {
				active++
			}
		}
		sent += w.sentTotal.Swap(0)
		wire := w.sentWire.Load()
		e.metrics.msgsWire.Add(wire - w.lastWire.Swap(wire))
	}
	e.metrics.supersteps.Inc()
	e.metrics.msgsSent.Add(sent)
	e.metrics.activeVerts.Set(active)
	return active, sent, nil
}

// rotate makes the mailboxes filled during this step current, empties
// the next ones and returns the step's combiner merges. It holds every
// stripe so that no delivery can straddle the swap.
func (w *worker) rotate() (merged int64) {
	for i := range w.stripes {
		s := &w.stripes[i]
		s.Lock()
		merged += s.merged
		s.merged = 0
	}
	w.cur, w.next = w.next, w.cur
	w.curHas, w.nextHas = w.nextHas, w.curHas
	clear(w.nextHas)
	for i := range w.stripes {
		w.stripes[i].Unlock()
	}
	return merged
}

// computePhase runs Compute over this machine's vertices, ships the
// outboxes, then flushes and broadcasts the end-of-step marker.
// Cancellation is polled every 1024 vertices; a cancelled phase returns
// ctx.Err() before shipping or sending its markers (the whole superstep
// is abandoned, so no peer will wait for them — the barrier itself is
// ctx-aware).
func (w *worker) computePhase(ctx context.Context, step int) error {
	node := w.m.Slave().Node()
	n := w.pv.NumVertices()
	var wg sync.WaitGroup
	ids := w.pv.IDs()
	shard := (n + len(w.ctxs) - 1) / len(w.ctxs)
	for i, lo := 0, 0; lo < n; i, lo = i+1, lo+shard {
		vctx := &w.ctxs[i]
		vctx.step = step
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for idx := lo; idx < hi; idx++ {
				if idx&1023 == 0 && ctx.Err() != nil {
					break
				}
				var msgs []float64
				if w.curHas[idx] {
					msgs = w.cur[idx : idx+1]
				} else if !w.active[idx] {
					continue
				}
				vctx.self = ids[idx]
				vctx.selfIdx = idx
				newVal, halt := w.e.prog.Compute(vctx, vctx.self, w.values[idx], msgs)
				w.values[idx] = newVal
				w.active[idx] = !halt
			}
		}(lo, min(lo+shard, n))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	w.ship(node)
	if err := node.Flush(); err != nil && !errors.Is(err, msg.ErrUnreachable) {
		return err
	}
	// Broadcast the end-of-step marker; FIFO ordering places it after all
	// vertex messages from this machine.
	for _, other := range w.e.workers {
		if other.id != w.id {
			node.Send(other.id, protoStepDone, []byte{byte(step)})
		}
	}
	return node.Flush()
}

// batch is one remote owner's payload under construction: n pairs in l.
type batch struct {
	l *buf.Lease
	n int
}

// ship folds the compute goroutines' step counts and outboxes into the
// first context's, then sends each remote owner its pairs in ascending
// slot order, which is ascending id order, clearing the outbox as it
// goes. A full payload is flushed on its own, so the packer never grows
// past its lease.
func (w *worker) ship(node *msg.Node) {
	first := &w.ctxs[0]
	for i := 1; i < len(w.ctxs); i++ {
		c := &w.ctxs[i]
		first.sent += c.sent
		first.wire += c.wire
		first.combined += c.combined
		first.dropped += c.dropped
		c.sent, c.wire, c.combined, c.dropped = 0, 0, 0, 0
		for i, word := range c.outHas {
			for ; word != 0; word &= word - 1 {
				r := 64*i + bits.TrailingZeros64(word)
				if first.outHas[i]>>(r%64)&1 != 0 {
					first.out[r] = w.e.prog.Combine(first.out[r], c.out[r])
					first.combined++
				} else {
					first.out[r] = c.out[r]
					first.outHas[i] |= 1 << (r % 64)
				}
			}
			c.outHas[i] = 0
		}
	}
	n := uint32(w.pv.NumVertices())
	for i, word := range first.outHas {
		for ; word != 0; word &= word - 1 {
			r := 64*i + bits.TrailingZeros64(word)
			owner := w.farOwner[r]
			b := &w.batches[owner]
			if b.l == nil {
				b.l = buf.Get(maxBatchPairs * pairBytes)
			}
			p := b.l.Bytes()[b.n*pairBytes:]
			binary.LittleEndian.PutUint64(p, w.pv.SlotID(n+uint32(r)))
			binary.LittleEndian.PutUint64(p[8:], math.Float64bits(first.out[r]))
			first.wire++
			if b.n++; b.n == maxBatchPairs {
				node.Flush()
				node.Send(owner, protoVertexMsg, b.l.Bytes())
				node.Flush()
				b.n = 0
			}
		}
		first.outHas[i] = 0
	}
	for owner := range w.batches {
		b := &w.batches[owner]
		if b.l == nil {
			continue
		}
		if b.n > 0 {
			node.Send(msg.MachineID(owner), protoVertexMsg, b.l.Bytes()[:b.n*pairBytes])
		}
		b.l.Release()
		*b = batch{}
	}
	w.sentTotal.Add(first.sent)
	w.sentWire.Add(first.wire)
	w.e.metrics.msgsCombined.Add(first.combined)
	w.e.metrics.msgsDropped.Add(first.dropped)
	first.sent, first.wire, first.combined, first.dropped = 0, 0, 0, 0
}

// waitForMarkers blocks until `want` peers have signalled end-of-step,
// or ctx fires (Run's watcher goroutine broadcasts the cond on ctx.Done
// so parked waiters re-check).
func (w *worker) waitForMarkers(ctx context.Context, want int) error {
	w.doneMu.Lock()
	for len(w.doneFrom) < want && ctx.Err() == nil {
		w.doneCond.Wait()
	}
	err := ctx.Err()
	clear(w.doneFrom)
	w.doneMu.Unlock()
	return err
}

func (w *worker) onStepDone(from msg.MachineID, _ []byte) {
	w.doneMu.Lock()
	w.doneFrom[from] = true
	w.doneCond.Broadcast()
	w.doneMu.Unlock()
}

// deliver combines m into local vertex idx's next-step mailbox.
func (w *worker) deliver(idx int, m float64) {
	s := &w.stripes[idx%inboxShards]
	s.Lock()
	if w.nextHas[idx] {
		w.next[idx] = w.e.prog.Combine(w.next[idx], m)
		s.merged++
	} else {
		w.next[idx], w.nextHas[idx] = m, true
	}
	s.Unlock()
}

// onVertexMsg delivers a payload of combined (id, value) pairs.
func (w *worker) onVertexMsg(_ msg.MachineID, b []byte) {
	ok := decodeVertexBatch(b, func(dst uint64, m float64) {
		if idx, ok := w.pv.IndexOf(dst); ok {
			w.deliver(idx, m)
		} else {
			w.e.metrics.msgsDropped.Inc()
		}
	})
	if !ok {
		w.e.metrics.rejected.Inc()
	}
}

// decodeVertexBatch hands each (id, value) pair of a protoVertexMsg
// payload to fn. A payload whose length is not a whole number of pairs,
// or whose ids are not strictly ascending, is rejected whole: it returns
// false before fn sees any pair.
func decodeVertexBatch(b []byte, fn func(id uint64, val float64)) bool {
	if len(b)%pairBytes != 0 {
		return false
	}
	for off := pairBytes; off < len(b); off += pairBytes {
		if binary.LittleEndian.Uint64(b[off:]) <= binary.LittleEndian.Uint64(b[off-pairBytes:]) {
			return false
		}
	}
	for ; len(b) > 0; b = b[pairBytes:] {
		fn(binary.LittleEndian.Uint64(b), math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
	}
	return true
}

// onHubMsg fans a hub vertex's broadcast out to all local targets.
func (w *worker) onHubMsg(_ msg.MachineID, b []byte) {
	if len(b) != pairBytes {
		return
	}
	src := binary.LittleEndian.Uint64(b[0:])
	m := math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	for _, idx := range w.hubSources[src] {
		w.deliver(int(idx), m)
	}
}

// subscribers returns the bitmask of machines subscribed to local vertex
// idx as a hub (bit m of word m/64 for machine m), or nil with hub
// buffering off.
func (w *worker) subscribers(idx int) []uint64 {
	if w.hubSubs == nil {
		return nil
	}
	return w.hubSubs[idx*w.subWords : (idx+1)*w.subWords]
}

// setupHubSubscriptions implements the §5.4 action-script exchange. The
// remote/local bipartite split comes straight from the partition view;
// no in-link re-scan is needed.
//
// The hub owner alone decides what is skipped: a subscriber keeps its
// hubs whatever its calls return, since the owner may have applied a
// script whose reply was lost. It then fans out a hub copy if the owner
// sends one, and receives the per-edge messages otherwise. Owners accept
// scripts only until every machine's calls are answered, so no
// subscription changes under a running superstep.
func (e *Engine) setupHubSubscriptions(ctx context.Context) {
	for _, w := range e.workers {
		w.hubSources = make(map[uint64][]int32)
		w.subWords = (e.g.Machines() + 63) / 64
		w.doneMu.Lock()
		w.hubSubs = make([]uint64, w.pv.NumVertices()*w.subWords)
		w.scriptsOpen = true
		w.doneMu.Unlock()
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// Subscribe to hubs via action scripts grouped by owner.
			perOwner := make(map[msg.MachineID][]uint64)
			for _, rs := range w.pv.RemoteInSources() {
				if len(rs.Targets) >= e.opts.HubThreshold {
					w.hubSources[rs.ID] = rs.Targets
					owner := w.m.Slave().Owner(rs.ID)
					perOwner[owner] = append(perOwner[owner], rs.ID)
				}
			}
			// One call per owner, all in flight at once: a machine whose
			// replies are lost waits 2 × CallTimeout in all, not per owner.
			node := w.m.Slave().Node()
			for owner, hubs := range perOwner {
				wg.Add(1)
				go func() {
					defer wg.Done()
					script := make([]byte, 8*len(hubs)) //alloc:ok one action script per hub owner, once per run
					for i, h := range hubs {
						binary.LittleEndian.PutUint64(script[8*i:], h)
					}
					if _, err := node.Call(ctx, owner, protoActionScript, script); err != nil {
						// Retry once: the owner may not have applied it.
						e.metrics.hubRetries.Inc()
						if _, err = node.Call(ctx, owner, protoActionScript, script); err != nil {
							e.metrics.hubFailures.Inc()
						}
					}
				}()
			}
		}(w)
	}
	wg.Wait()
	for _, w := range e.workers {
		w.doneMu.Lock()
		w.scriptsOpen = false
		w.doneMu.Unlock()
	}
}

// onActionScript records a peer's hub subscriptions ("each machine merges
// the action scripts it receives from other machines", §5.4) in the
// subscribed hubs' bitmasks. A hub absent from this snapshot has no
// broadcast to share. A script that arrives after hub set-up is refused.
func (w *worker) onActionScript(_ context.Context, from msg.MachineID, script []byte) ([]byte, error) {
	w.doneMu.Lock() // reuse as a small setup lock
	defer w.doneMu.Unlock()
	if !w.scriptsOpen {
		return nil, errScriptsClosed
	}
	for off := 0; off+8 <= len(script); off += 8 {
		if idx, ok := w.pv.IndexOf(binary.LittleEndian.Uint64(script[off:])); ok {
			w.subscribers(idx)[from/64] |= 1 << (from % 64)
		}
	}
	return nil, nil
}
