// Package fetch is the asynchronous batched cell-read pipeline: the
// client side of the paper's latency-hiding story (§4). Trinity observes
// that a distributed graph computation is network-bound not because it
// moves much data but because it makes many small reads, so the remedy is
// to (a) issue reads asynchronously and overlap them with computation,
// (b) batch reads per destination machine so one frame answers N keys,
// and (c) keep a bounded pipeline of batches in flight per machine.
//
// Batching, adaptation, re-routing and the failure contract (every
// Future resolves, with a value or an error) are internal/memcloud/batch;
// this package is the read policy on top of it. A Fetcher fronts a
// memcloud slave. GetAsync returns a Future immediately: a local key
// resolves on the spot without entering the pipeline, and duplicate
// in-flight keys coalesce onto one wire request. Batches travel as
// ProtoMultiGet frames.
package fetch

import (
	"context"
	"encoding/binary"
	"errors"

	"trinity/internal/buf"
	"trinity/internal/memcloud"
	"trinity/internal/memcloud/batch"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// ErrClosed resolves futures that were still queued when the fetcher was
// closed.
var ErrClosed = errors.New("fetch: fetcher closed")

// Client is the slice of a *memcloud.Slave the pipeline needs.
type Client interface {
	batch.Client
	Node() *msg.Node
	// LocalGet answers the key from local trunks; ok=false means the key
	// is remote and must go over the wire.
	LocalGet(key uint64) (val []byte, ok bool, err error)
	// Get reads one cell through the synchronous client.
	Get(ctx context.Context, key uint64) ([]byte, error)
}

// Options tune the pipeline; metrics land under scope "fetch.m<id>".
type Options = batch.Options

// Future is one pending cell read. Wait blocks until the pipeline
// resolves it with the cell's value or an error.
type Future = batch.Future

// Fetcher is the asynchronous scatter-gather cell-read pipeline.
type Fetcher struct {
	c Client
	p *batch.Pipeline
	// pending holds every key from GetAsync until its future resolves, so
	// later GetAsync calls for the same key coalesce onto it whether it
	// is queued or in flight. Guarded by p.Mu.
	pending   map[uint64]*batch.Entry
	localHits *obs.Counter
}

// New builds a fetcher over the endpoint.
func New(c Client, opt Options) *Fetcher {
	f := &Fetcher{c: c, pending: make(map[uint64]*batch.Entry)}
	f.p = batch.New(c, opt, batch.Policy{
		Name:      "fetch",
		ErrClosed: ErrClosed,
		Exchange:  f.exchange,
		// The pending-map delete happens under the same lock as coalescing
		// lookups, so a GetAsync after resolution starts a fresh read
		// instead of receiving a stale value.
		OnResolve: func(e *batch.Entry) { delete(f.pending, e.Key) },
	})
	f.localHits = f.p.Scope().Counter("local_hits")
	return f
}

// GetAsync schedules a cell read and returns its future immediately.
// Local keys resolve synchronously without touching the pipeline.
func (f *Fetcher) GetAsync(key uint64) *Future {
	if val, ok, err := f.c.LocalGet(key); ok {
		f.localHits.Add(1)
		return batch.Resolved(val, err)
	}
	f.p.Mu.Lock()
	defer f.p.Mu.Unlock()
	if f.p.ClosedLocked() {
		return batch.Resolved(nil, ErrClosed)
	}
	if e, ok := f.pending[key]; ok {
		f.p.Coalesced()
		return &e.Fut
	}
	e := f.p.NewEntryLocked(key)
	f.pending[key] = e
	f.p.EnqueueLocked(e)
	return &e.Fut
}

// GetBatch schedules all keys, flushes the pipeline, and waits; fn (if
// non-nil) is invoked once per key in argument order. When ctx fires
// mid-wait the remaining keys report ctx.Err() without blocking; their
// reads still complete in the background.
func (f *Fetcher) GetBatch(ctx context.Context, keys []uint64, fn func(i int, key uint64, val []byte, err error)) {
	futs := make([]*Future, len(keys))
	for i, k := range keys {
		futs[i] = f.GetAsync(k)
	}
	f.Flush()
	for i, fu := range futs {
		val, err := fu.Wait(ctx)
		if fn != nil {
			fn(i, keys[i], val, err)
		}
	}
}

// Flush ships every queued key without waiting for size or age
// watermarks. It does not wait for responses.
func (f *Fetcher) Flush() { f.p.Flush() }

// Close resolves every queued future with ErrClosed and stops the
// pipeline. Batches already on the wire resolve when their call returns.
func (f *Fetcher) Close() { f.p.Close() }

// exchange performs one multi-get with machine m. The request is encoded
// into a pooled lease and the reply is decoded in place out of the reply
// frame's lease — no per-exchange buffer churn.
//
// Each results[i].Val aliases the reply lease, released on return.
// Futures outlive the frame and their callers retain values indefinitely
// (the subgraph matcher's cell cache), so OK values are copied out — but
// into one contiguous arena for the whole batch, not one allocation per
// key, and the arena holds only payload bytes, no wire headers.
func (f *Fetcher) exchange(m msg.MachineID, b []*batch.Entry) error {
	if m == f.c.ID() {
		// Re-routed keys whose trunk moved to this very machine. Get
		// waits out a trunk that recovery is still installing here.
		for _, e := range b {
			val, err := f.c.Get(context.Background(), e.Key)
			e.Settle(val, err)
		}
		return nil
	}
	req := buf.Get(4 + 8*len(b))
	rb := req.Bytes()
	binary.LittleEndian.PutUint32(rb, uint32(len(b)))
	for i, e := range b {
		binary.LittleEndian.PutUint64(rb[4+8*i:], e.Key)
	}
	// Background, not a caller's ctx: one wire batch aggregates reads from
	// many callers with different budgets, so no single caller's deadline
	// may kill it. The msg-layer CallTimeout bounds the exchange.
	lease, resp, err := f.c.Node().CallLease(context.Background(), m, memcloud.ProtoMultiGet, rb)
	req.Release()
	if err != nil {
		return err
	}
	defer lease.Release()
	results, err := memcloud.DecodeMultiGetResp(resp, len(b))
	if err != nil {
		return err
	}
	total := 0
	for i := range results {
		total += len(results[i].Val)
	}
	arena := make([]byte, 0, total) //alloc:ok one caller-owned value arena per batch
	for i, e := range b {
		switch results[i].Status {
		case memcloud.MultiGetOK:
			off := len(arena)
			arena = append(arena, results[i].Val...)
			e.Settle(arena[off:len(arena):len(arena)], nil)
		case memcloud.MultiGetNotFound:
			e.Settle(nil, memcloud.ErrNotFound)
		default:
			e.Settle(nil, memcloud.ErrWrongOwner)
		}
	}
	return nil
}
