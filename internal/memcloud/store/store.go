// Package store is the asynchronous batched cell-write pipeline: the
// mirror image of the read pipeline in internal/memcloud/fetch, applied
// to the bulk-load and update direction the paper's §7 evaluation leans
// on (billion-node graphs are ingested into the memory cloud, not read
// out of it). A write-heavy phase is network-bound for the same reason a
// computation's read phase is — many small exchanges, not much data — and
// the remedy is the same bulk-exchange discipline GraphLab and the PBGL
// baseline use for their update phases.
//
// Batching, adaptation, re-routing and the failure contract (every
// Future resolves, with nil or an error) are internal/memcloud/batch;
// this package is the write policy on top of it. A Writer fronts a
// memcloud slave. PutAsync returns a Future immediately; writes to the
// same key order through a per-key successor chain (at most one write per
// key is queued or in flight at any moment), and a Put landing on a
// still-queued Put coalesces last-write-wins onto the same future.
// Batches travel as ProtoMultiPut frames, except that a batch whose
// destination is the local slave skips the wire and applies
// through LocalMultiPut — keeping the batching wins (one trunk-mutex
// acquisition and one WAL group record per trunk per batch). A transport
// failure may leave a frame applied with its ack lost; the retry re-sends
// the same upserts, which is harmless because Put is idempotent.
package store

import (
	"context"
	"errors"

	"trinity/internal/buf"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/batch"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// ErrClosed resolves futures that were still queued when the writer was
// closed.
var ErrClosed = errors.New("store: writer closed")

// ErrRejected resolves futures whose write the owner refused for a
// reason re-routing cannot fix (trunk out of memory, reserved key).
var ErrRejected = errors.New("store: write rejected by owner")

// Client is the slice of a *memcloud.Slave the pipeline needs.
type Client interface {
	batch.Client
	Node() *msg.Node
	// LocalMultiPut applies a batch to local trunks, one status per item.
	LocalMultiPut(items []memcloud.MultiPutItem) []byte
}

// Options tune the pipeline; metrics land under scope "store.m<id>".
type Options = batch.Options

// Future is one pending cell write. Wait blocks until the pipeline
// resolves it; its value is always nil, and a nil error means the write
// was applied on (and acknowledged by) its owner. A cancelled Wait only
// unhooks this caller: the write stays in the pipeline and still lands
// (bounded by the msg call timeout), so a later read observes it.
type Future = batch.Future

// Writer is the asynchronous batched cell-write pipeline.
type Writer struct {
	c Client
	p *batch.Pipeline
	// pending holds the TAIL of each key's chain (the latest write); the
	// head of the chain is the one queued or in flight, and Entry.Next
	// links successors that must wait for it — writes to one key are
	// strictly ordered, so two concurrent multi-put frames can never race
	// the same key. Guarded by p.Mu.
	pending      map[uint64]*batch.Entry
	localBatches *obs.Counter
}

// New builds a writer over the endpoint.
func New(c Client, opt Options) *Writer {
	w := &Writer{c: c, pending: make(map[uint64]*batch.Entry)}
	w.p = batch.New(c, opt, batch.Policy{
		Name:      "store",
		ErrClosed: ErrClosed,
		Exchange:  w.exchange,
		OnResolve: w.advance,
	})
	w.localBatches = w.p.Scope().Counter("local_batches")
	return w
}

// PutAsync schedules an upsert and returns its future immediately. val is
// aliased, not copied: it must stay immutable until the future resolves.
func (w *Writer) PutAsync(key uint64, val []byte) *Future {
	w.p.Mu.Lock()
	defer w.p.Mu.Unlock()
	if w.p.ClosedLocked() {
		return batch.Resolved(nil, ErrClosed)
	}
	tail := w.pending[key]
	// Last-write-wins coalescing: a Put landing on a still-queued Put
	// replaces its payload in place and rides its future — one wire slot,
	// one resolution, final value wins. A Put behind one already shipped
	// chains instead: its payload may be on the wire.
	if tail != nil && !tail.Shipped {
		tail.Val = val
		w.p.Coalesced()
		return &tail.Fut
	}
	e := w.p.NewEntryLocked(key)
	e.Val = val
	w.pending[key] = e
	if tail != nil {
		tail.Next = e
	} else {
		w.p.EnqueueLocked(e)
	}
	return &e.Fut
}

// advance moves a key's chain forward once its head resolved: the
// successor (if any) becomes eligible to ship, preserving per-key write
// order; otherwise the pending-map tail is cleared so the next write to
// the key starts a fresh chain. After Close the enqueue resolves the
// successor ErrClosed, cascading down the chain.
func (w *Writer) advance(e *batch.Entry) {
	if next := e.Next; next != nil {
		e.Next = nil
		w.p.EnqueueLocked(next)
	} else {
		delete(w.pending, e.Key)
	}
}

// Flush ships every queued op without waiting for size or age
// watermarks. It does not wait for acknowledgements; use Drain for that.
func (w *Writer) Flush() { w.p.Flush() }

// Drain flushes the pipeline and blocks until every write issued so far
// has resolved (or ctx fires). It returns the first error any of those
// writes resolved with — the bulk loader's one-line completion check.
// Chained successors issued before Drain count as outstanding, so a
// drained writer has truly quiesced.
func (w *Writer) Drain(ctx context.Context) error { return w.p.Drain(ctx) }

// Close resolves every queued future (and its chained successors) with
// ErrClosed and stops the pipeline. Batches already on the wire resolve
// when their call returns.
func (w *Writer) Close() { w.p.Close() }

// exchange performs one multi-put with machine m. The destination being
// this very machine takes the local path: LocalMultiPut applies the batch
// trunk by trunk with the same amortized locking and WAL group commit the
// remote handler uses, no frame at all. Otherwise the request is encoded
// into a pooled lease and the statuses are decoded in place out of the
// reply frame's lease.
func (w *Writer) exchange(m msg.MachineID, b []*batch.Entry) error {
	items := make([]memcloud.MultiPutItem, len(b))
	for i, e := range b {
		items[i] = memcloud.MultiPutItem{Key: e.Key, Val: e.Val}
	}
	var statuses []byte
	if m == w.c.ID() {
		statuses = w.c.LocalMultiPut(items)
		w.localBatches.Add(1)
	} else {
		req := buf.Get(memcloud.MultiPutReqSize(items))
		// Background, not a caller's ctx: one frame aggregates writes from
		// many callers with different budgets. The msg CallTimeout bounds it.
		lease, resp, err := w.c.Node().CallLease(context.Background(), m, memcloud.ProtoMultiPut,
			memcloud.AppendMultiPutReq(req.Bytes()[:0], items))
		req.Release()
		if err != nil {
			return err
		}
		defer lease.Release()
		if statuses, err = memcloud.DecodeMultiPutResp(resp, len(b)); err != nil {
			return err
		}
	}
	for i, e := range b {
		switch statuses[i] {
		case memcloud.MultiPutOK:
			e.Settle(nil, nil)
		case memcloud.MultiPutErr:
			e.Settle(nil, ErrRejected)
		default:
			e.Settle(nil, memcloud.ErrWrongOwner)
		}
	}
	return nil
}
