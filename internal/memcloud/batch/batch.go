// Package batch is the per-destination adaptive batching pipeline under
// the cell-read (internal/memcloud/fetch) and cell-write
// (internal/memcloud/store) clients. The paper has one latency-hiding
// discipline (§4) — issue asynchronously, batch per destination machine so
// one frame carries N keys, bound the batches in flight per machine — and
// one failure protocol (§6.2), and both apply to traffic in either
// direction, so the state machine lives here once.
//
// A policy (fetch or store) decides admission — which keys coalesce,
// which chain, which never enter — creates entries with NewEntryLocked
// and hands them to EnqueueLocked. The pipeline groups queued entries by
// owner machine and ships a batch when a queue reaches its target size,
// when the oldest queued entry has waited MaxDelay, or on Flush. The
// target adapts within [MinBatch, MaxBatch]: it doubles while completions
// find a backlog (throughput-bound) and halves when timer flushes ship
// small batches (latency-bound). Each batch is handed to the policy's
// Exchange function off the lock; each resolution calls its OnResolve
// hook under the lock.
//
// Failure contract: every future resolves, with a value or an error —
// under message drops, duplicates, delays and machine failures. An entry
// settled memcloud.ErrWrongOwner, or stranded by a failed exchange, goes
// through memcloud.Reroute (report, refresh the addressing table) and is
// re-batched toward its new owner, at most memcloud.MaxRetries times;
// past the bound, or when Reroute says a retry cannot help, the future
// resolves with the error. Close resolves every queued future with the
// policy's ErrClosed; batches already exchanging resolve when their
// exchange returns (bounded by the msg-layer call timeout).
package batch

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// Client is the slice of a *memcloud.Slave the pipeline routes by.
type Client interface {
	memcloud.Rerouter
	ID() msg.MachineID
	// Owner returns the machine currently believed to host the key.
	Owner(key uint64) msg.MachineID
}

// Options tune the pipeline. Zero values select the defaults.
type Options struct {
	// MaxBatch caps entries per batch (default 512).
	MaxBatch int
	// MinBatch floors the adaptive target (default 8).
	MinBatch int
	// MaxDelay bounds how long a queued entry may wait before a timer
	// flush ships it regardless of batch size (default 2ms, matching the
	// msg layer's packing flush interval). Synchronous callers should
	// Flush before blocking rather than lean on this timer: it is the
	// safety net that keeps forgotten futures from stalling, and its
	// firing is the signal that shrinks the adaptive batch target.
	MaxDelay time.Duration
	// Window bounds concurrent in-flight batches per destination machine
	// (default 4).
	Window int
	// Metrics selects the registry (default obs.Default()). Metrics land
	// under scope "<policy name>.m<id>".
	Metrics *obs.Registry
}

func (o *Options) fill() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 512
	}
	if o.MinBatch <= 0 {
		o.MinBatch = 8
	}
	if o.MinBatch > o.MaxBatch {
		o.MinBatch = o.MaxBatch
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default()
	}
}

// Future is one pending cell operation. Wait blocks until the pipeline
// resolves it with the operation's value (reads) or nil (writes), or an
// error.
//
// The completion channel is lazy: most futures in a pipelined workload
// are already resolved by the time their caller looks (the whole point
// of overlapping exchanges with computation), so the channel — one
// allocation per key, otherwise — is only created when a caller actually
// has to block. The resolved flag is the synchronization point: resolve
// writes val/err before the atomic store, so a Wait that observes the
// flag reads them without touching the mutex.
type Future struct {
	resolvedFlag atomic.Bool
	mu           sync.Mutex
	done         chan struct{} // created on first blocking Wait/Done
	val          []byte
	err          error
	cancelled    *obs.Counter // pipeline's futures_cancelled; nil on pre-resolved futures
}

// Wait blocks until the future resolves or ctx fires. A cancelled Wait
// only unhooks this caller: the operation stays in the pipeline and the
// future still resolves when its batch completes (bounded by the msg
// call timeout), so coalescing peers waiting on the same key are
// unaffected and the batching machinery never wedges on an abandoned
// future.
func (f *Future) Wait(ctx context.Context) ([]byte, error) {
	if f.resolvedFlag.Load() {
		return f.val, f.err
	}
	select {
	case <-f.doneChan():
		return f.val, f.err
	case <-ctx.Done():
		if f.cancelled != nil {
			f.cancelled.Add(1)
		}
		return nil, ctx.Err()
	}
}

// Done exposes the completion channel for select-based callers.
func (f *Future) Done() <-chan struct{} { return f.doneChan() }

// closedChan is returned by doneChan for every already-resolved future
// that never had a blocked waiter: readiness polls (select with a
// Done() arm and a default) are the common case in pipelined loops and
// must not cost an allocation per key.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func (f *Future) doneChan() chan struct{} {
	if f.resolvedFlag.Load() {
		return closedChan
	}
	f.mu.Lock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.resolvedFlag.Load() {
			// Resolved between the flag check and taking the lock;
			// resolve already ran and saw done==nil, so close here.
			close(f.done)
		}
	}
	ch := f.done
	f.mu.Unlock()
	return ch
}

// resolve completes the future exactly once, waking any blocked waiters.
func (f *Future) resolve(val []byte, err error) {
	f.mu.Lock()
	f.val, f.err = val, err
	f.resolvedFlag.Store(true)
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
}

// Resolved returns a future that never entered the pipeline: a local fast
// path's answer, or a closed pipeline's refusal.
func Resolved(val []byte, err error) *Future {
	f := &Future{val: val, err: err}
	f.resolvedFlag.Store(true)
	return f
}

// Entry is one operation's place in the pipeline, from admission until
// its future resolves. It is the union of what a read and a write carry,
// one concrete type so the queues hold no interface values; the future is
// embedded, not pointed to, and entries come out of a slab (see
// NewEntryLocked): in steady state one pipelined operation costs a
// fraction of an allocation, where the naive shape (entry, Future, done
// channel) cost three per key.
//
// Val and Next belong to the policy: the pipeline never reads them. An
// entry in a batch handed to Exchange is owned by that call until it
// returns. The one-byte fields sit together so an entry is 120 bytes and
// a slab fills a 32 KiB allocation class.
type Entry struct {
	Key  uint64
	Val  []byte // payload to send
	Next *Entry // policy's link to a successor waiting on this entry
	// Shipped is set under the lock when the entry leaves its queue for an
	// exchange, and stays set through re-routes: from then on its payload
	// may be on the wire and the policy must not mutate it.
	Shipped  bool
	attempts uint8 // re-routes consumed, capped at memcloud.MaxRetries
	Fut      Future
}

// Settle records the entry's outcome from inside Exchange; the pipeline
// publishes it to the future once the exchange returns. An outcome of
// memcloud.ErrWrongOwner asks for a re-route instead.
func (e *Entry) Settle(val []byte, err error) { e.Fut.val, e.Fut.err = val, err }

// entrySlabSize is how many entries one slab allocation covers. A slab
// is garbage once every entry carved from it has resolved and every
// caller has dropped its future, so a stuck key pins at most this many
// neighbours — bounded, and small against a single wire frame.
const entrySlabSize = 256

// Policy is what differs between the pipelines built on this package.
type Policy struct {
	// Name prefixes the metric scope.
	Name string
	// ErrClosed resolves entries still queued at Close, and entries
	// enqueued after it.
	ErrClosed error
	// Exchange performs one batch's exchange with machine m, off the lock,
	// and Settles every entry. A non-nil error means no entry was
	// answered: the whole batch is re-routed or failed with it.
	Exchange func(m msg.MachineID, batch []*Entry) error
	// OnResolve runs under Mu right after an entry's future resolved, so
	// the policy can retire its admission state for the key; it may call
	// EnqueueLocked.
	OnResolve func(e *Entry)
}

// dest is the per-destination-machine batch queue.
type dest struct {
	queue    []*Entry
	inflight int // batches exchanging
	target   int // adaptive batch-size watermark
	// mustShip counts queue-front entries that ship regardless of the
	// size watermark: Flush and the age timer promise "everything queued
	// NOW goes out", without also destroying the batching of entries that
	// arrive afterwards.
	mustShip int
	timer    *time.Timer
}

// Pipeline is the batching state machine. All methods are safe for
// concurrent use; those named *Locked require Mu.
type Pipeline struct {
	// Mu guards the pipeline and the admission state the policy keeps
	// beside it (its pending map): admission, shipping and resolution all
	// happen under it, so a lookup after resolution never sees a stale
	// entry.
	Mu sync.Mutex

	c   Client
	opt Options
	pol Policy

	dests       map[msg.MachineID]*dest
	slab        []Entry       // unissued tail of the current entry slab
	outstanding int           // unresolved entries across the pipeline
	drainers    int           // Drain calls currently waiting on idle
	idle        chan struct{} // closed when outstanding drops to 0; nil when nobody drains
	firstErr    error         // first non-nil resolution since the last Drain
	closed      bool

	scope        *obs.Scope
	batchSize    *obs.Histogram
	coalesceHits *obs.Counter
	keysTotal    *obs.Counter
	batches      *obs.Counter
	savedRT      *obs.Counter
	retries      *obs.Counter
	errorsCtr    *obs.Counter
	cancelled    *obs.Counter
	inflight     *obs.Gauge
}

// New builds a pipeline over the endpoint.
func New(c Client, opt Options, pol Policy) *Pipeline {
	opt.fill()
	scope := opt.Metrics.Scope(pol.Name).Scope(machineScope(c.ID()))
	return &Pipeline{
		c:     c,
		opt:   opt,
		pol:   pol,
		dests: make(map[msg.MachineID]*dest),

		scope:        scope,
		batchSize:    scope.Histogram("batch_size"),
		coalesceHits: scope.Counter("coalesce_hits"),
		keysTotal:    scope.Counter("keys"),
		batches:      scope.Counter("batches"),
		savedRT:      scope.Counter("round_trips_saved"),
		retries:      scope.Counter("retries"),
		errorsCtr:    scope.Counter("errors"),
		cancelled:    scope.Counter("futures_cancelled"),
		inflight:     scope.Gauge("inflight"),
	}
}

func machineScope(id msg.MachineID) string {
	return "m" + strconv.FormatUint(uint64(id), 10)
}

// Scope is where the pipeline's metrics live, for the policy's own
// counters.
func (p *Pipeline) Scope() *obs.Scope { return p.scope }

// ClosedLocked reports whether Close has run.
func (p *Pipeline) ClosedLocked() bool { return p.closed }

// NewEntryLocked carves one entry out of the slab, refilling it when
// exhausted, and counts it outstanding.
func (p *Pipeline) NewEntryLocked(key uint64) *Entry {
	if len(p.slab) == 0 {
		p.slab = make([]Entry, entrySlabSize)
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	e.Key = key
	e.Fut.cancelled = p.cancelled
	p.outstanding++
	return e
}

// Coalesced counts one operation that rode an entry already in the
// pipeline, saving the round trip a per-key call would have made.
func (p *Pipeline) Coalesced() {
	p.coalesceHits.Add(1)
	p.savedRT.Add(1)
}

// EnqueueLocked routes the entry to its owner's queue and pumps. While a
// Drain is waiting, every enqueue inherits the flush promise: chained
// successors and re-routed retries surface mid-drain and must ship
// immediately rather than wait out batch formation, or the drain would
// stall on the age timer.
func (p *Pipeline) EnqueueLocked(e *Entry) {
	if p.closed {
		p.resolveLocked(e, nil, p.pol.ErrClosed)
		return
	}
	owner := p.c.Owner(e.Key)
	d := p.dests[owner]
	if d == nil {
		d = &dest{target: p.opt.MinBatch}
		p.dests[owner] = d
	}
	d.queue = append(d.queue, e)
	if p.idle != nil {
		d.mustShip = len(d.queue)
	}
	p.pumpLocked(owner, d)
}

// Flush ships every queued entry without waiting for size or age
// watermarks. It does not wait for responses; Drain does.
func (p *Pipeline) Flush() {
	p.Mu.Lock()
	p.flushLocked()
	p.Mu.Unlock()
}

func (p *Pipeline) flushLocked() {
	for m, d := range p.dests {
		d.mustShip = len(d.queue)
		p.pumpLocked(m, d)
	}
}

// Drain flushes the pipeline and blocks until every entry created so far
// has resolved (or ctx fires). It returns the first error any of them
// resolved with since the last Drain. Entries a policy holds back behind
// others count as outstanding, so a drained pipeline has truly quiesced.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	p.flushLocked()
	if p.outstanding > 0 {
		if p.idle == nil {
			p.idle = make(chan struct{})
		}
		idle := p.idle
		p.drainers++
		p.Mu.Unlock()
		var err error
		select {
		case <-idle:
		case <-ctx.Done():
			err = ctx.Err()
		}
		p.Mu.Lock()
		// The last waiter to leave drops the latch: a cancelled Drain
		// must not leave later enqueues in flush-everything mode.
		if p.drainers--; p.drainers == 0 {
			p.idle = nil
		}
		if err != nil {
			return err
		}
	}
	err := p.firstErr
	p.firstErr = nil
	return err
}

// Close resolves every queued future with the policy's ErrClosed and
// stops the pipeline. Batches already exchanging resolve when their
// exchange returns.
func (p *Pipeline) Close() {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, d := range p.dests {
		if d.timer != nil {
			d.timer.Stop()
			d.timer = nil
		}
		for _, e := range d.queue {
			p.resolveLocked(e, nil, p.pol.ErrClosed)
		}
		d.queue = nil
	}
}

// pumpLocked ships as many batches as the watermarks allow: full batches
// whenever the queue reaches the adaptive target, plus whatever a Flush
// or timer promised to drain. It re-arms the age timer for anything that
// stays queued.
func (p *Pipeline) pumpLocked(m msg.MachineID, d *dest) {
	for len(d.queue) > 0 && d.inflight < p.opt.Window &&
		(len(d.queue) >= d.target || d.mustShip > 0) {
		p.shipLocked(m, d)
	}
	if len(d.queue) > 0 && d.timer == nil && !p.closed {
		d.timer = time.AfterFunc(p.opt.MaxDelay, func() { p.timerFlush(m) })
	}
}

// shipLocked hands one batch (up to target entries) to an exchange
// goroutine.
func (p *Pipeline) shipLocked(m msg.MachineID, d *dest) {
	n := min(len(d.queue), d.target)
	batch := make([]*Entry, n)
	copy(batch, d.queue[:n])
	// batch owns its own copy of the shipped prefix, so the tail can be
	// slid down in place and the queue's backing array reused forever.
	rest := copy(d.queue, d.queue[n:])
	clear(d.queue[rest:])
	d.queue = d.queue[:rest]
	d.mustShip = max(0, d.mustShip-n)
	for _, e := range batch {
		e.Shipped = true
	}
	d.inflight++
	p.inflight.Add(1)
	p.batches.Add(1)
	p.keysTotal.Add(int64(n))
	p.batchSize.Observe(int64(n))
	// A per-key client would have made n round trips; this batch makes
	// one.
	p.savedRT.Add(int64(n - 1))
	go p.exchange(m, batch)
}

// timerFlush is the age watermark: whatever queued since the oldest
// entry arrived ships now, even below target. Shipping well under target
// on a timer means the workload is latency-bound, so the target shrinks.
func (p *Pipeline) timerFlush(m msg.MachineID) {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	d := p.dests[m]
	d.timer = nil
	if len(d.queue) == 0 || p.closed {
		return
	}
	if len(d.queue) < d.target/2 {
		d.target = max(d.target/2, p.opt.MinBatch)
	}
	d.mustShip = len(d.queue)
	p.pumpLocked(m, d)
}

// exchange runs one batch through the policy's Exchange off the lock,
// publishes the settled outcomes, re-routes what must move, and retires
// the batch.
func (p *Pipeline) exchange(m msg.MachineID, batch []*Entry) {
	if err := p.pol.Exchange(m, batch); err != nil {
		p.errorsCtr.Add(1)
		p.reroute(m, batch, err)
	} else {
		var moved []*Entry
		p.Mu.Lock()
		for _, e := range batch {
			if e.Fut.err == memcloud.ErrWrongOwner {
				moved = append(moved, e)
			} else {
				p.resolveLocked(e, e.Fut.val, e.Fut.err)
			}
		}
		p.Mu.Unlock()
		if len(moved) > 0 {
			p.reroute(m, moved, memcloud.ErrWrongOwner)
		}
	}
	p.completed(m)
}

// reroute takes entries whose exchange with m failed with err through
// the §6.2 step once for the whole group, then re-batches each toward
// its new owner — or resolves it with err when its retries are spent or a
// retry cannot help. A trunk that recovery is still installing is
// waited for at its owner, so a disclaimer here means the table has
// moved on, and the refresh catches up with it.
func (p *Pipeline) reroute(m msg.MachineID, entries []*Entry, err error) {
	// Background, not a caller's ctx: one batch aggregates operations
	// from many callers with different budgets.
	retry := memcloud.Reroute(context.Background(), p.c, m, err)
	p.Mu.Lock()
	defer p.Mu.Unlock()
	for _, e := range entries {
		if !retry || e.attempts >= memcloud.MaxRetries {
			p.resolveLocked(e, nil, err)
			continue
		}
		e.attempts++
		p.retries.Add(1)
		p.EnqueueLocked(e)
	}
}

// completed retires one in-flight batch and adapts: a backlog at
// completion time means the pipeline is throughput-bound, so the target
// grows to amortize more entries per batch.
func (p *Pipeline) completed(m msg.MachineID) {
	p.Mu.Lock()
	defer p.Mu.Unlock()
	d := p.dests[m]
	d.inflight--
	p.inflight.Add(-1)
	if len(d.queue) >= d.target {
		d.target = min(d.target*2, p.opt.MaxBatch)
	}
	p.pumpLocked(m, d)
}

// resolveLocked completes an entry's future, feeds Drain's sticky first
// error, fires the idle latch when the pipeline quiesces, and lets the
// policy retire the key.
func (p *Pipeline) resolveLocked(e *Entry, val []byte, err error) {
	if err != nil && p.firstErr == nil {
		p.firstErr = err
	}
	e.Fut.resolve(val, err)
	p.outstanding--
	if p.outstanding == 0 && p.idle != nil {
		close(p.idle)
		p.idle = nil
	}
	p.pol.OnResolve(e)
}
