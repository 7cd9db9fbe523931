package batch

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

var errTestClosed = errors.New("test pipeline closed")

// fakeClient routes every key to machine 1 and counts §6.2 traffic.
type fakeClient struct {
	reports, refreshes atomic.Int32
}

func (c *fakeClient) ID() msg.MachineID          { return 0 }
func (c *fakeClient) Owner(uint64) msg.MachineID { return 1 }
func (c *fakeClient) RefreshTable(context.Context) {
	c.refreshes.Add(1)
}
func (c *fakeClient) ReportFailure(context.Context, msg.MachineID) error {
	c.reports.Add(1)
	return nil
}

// call is one Exchange invocation parked until the test answers it.
type call struct {
	batch []*Entry
	done  chan error
}

// harness drives a Pipeline through a fake Exchange: every batch shows up
// on calls and stays in flight until the test replies.
type harness struct {
	t     *testing.T
	p     *Pipeline
	c     *fakeClient
	calls chan call
	cur   atomic.Int32 // exchanges running now
	peak  atomic.Int32 // most exchanges ever running at once
}

func newHarness(t *testing.T, opt Options) *harness {
	h := &harness{t: t, c: &fakeClient{}, calls: make(chan call)}
	opt.Metrics = obs.NewRegistry()
	if opt.MaxDelay == 0 {
		opt.MaxDelay = time.Hour // no timer flushes unless the test asks
	}
	h.p = New(h.c, opt, Policy{
		Name:      "test",
		ErrClosed: errTestClosed,
		Exchange: func(_ msg.MachineID, b []*Entry) error {
			n := h.cur.Add(1)
			defer h.cur.Add(-1)
			for old := h.peak.Load(); n > old && !h.peak.CompareAndSwap(old, n); {
				old = h.peak.Load()
			}
			c := call{batch: b, done: make(chan error)}
			h.calls <- c
			return <-c.done
		},
		OnResolve: func(*Entry) {},
	})
	return h
}

// add admits n fresh entries and returns them.
func (h *harness) add(n int) []*Entry {
	h.p.Mu.Lock()
	defer h.p.Mu.Unlock()
	out := make([]*Entry, n)
	for i := range out {
		out[i] = h.p.NewEntryLocked(uint64(i))
		h.p.EnqueueLocked(out[i])
	}
	return out
}

// next returns the next batch to reach Exchange, checking its size.
func (h *harness) next(want int) call {
	h.t.Helper()
	select {
	case c := <-h.calls:
		if len(c.batch) != want {
			h.t.Fatalf("batch of %d entries, want %d", len(c.batch), want)
		}
		return c
	case <-time.After(5 * time.Second):
		h.t.Fatalf("no batch of %d reached Exchange", want)
		return call{}
	}
}

// quiesce waits until every answered exchange has been retired, so the
// adaptation and pumping its completion triggers have happened.
func (h *harness) quiesce(inflight int64) {
	h.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); h.p.inflight.Load() != inflight; runtime.Gosched() {
		if time.Now().After(deadline) {
			h.t.Fatalf("inflight = %d, want %d", h.p.inflight.Load(), inflight)
		}
	}
	h.p.Mu.Lock() // the gauge moves inside completed's critical section
	defer h.p.Mu.Unlock()
}

func (h *harness) batches(want int64) {
	h.t.Helper()
	if got := h.p.batches.Load(); got != want {
		h.t.Fatalf("%d batches shipped, want %d", got, want)
	}
}

func (h *harness) target(want int) {
	h.t.Helper()
	h.p.Mu.Lock()
	defer h.p.Mu.Unlock()
	if got := h.p.dests[1].target; got != want {
		h.t.Fatalf("target = %d, want %d", got, want)
	}
}

func wait(t *testing.T, e *Entry) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := e.Fut.Wait(ctx)
	return err
}

func TestFlushShipsWhatWasQueuedAtTheCall(t *testing.T) {
	h := newHarness(t, Options{})
	defer h.p.Close()

	first := h.add(3)
	h.batches(0) // below the watermark, no timer: parked
	h.p.Flush()
	h.batches(1)
	c := h.next(3)

	h.add(2) // arrives after the Flush: its promise does not cover these
	h.batches(1)
	c.done <- nil
	h.quiesce(0)
	h.batches(1) // the completion found mustShip spent
	if err := wait(t, first[0]); err != nil {
		t.Fatal(err)
	}

	h.p.Flush()
	h.next(2).done <- nil
}

func TestWindowBoundsInflightBatches(t *testing.T) {
	h := newHarness(t, Options{MinBatch: 1, MaxBatch: 1, Window: 2})
	defer h.p.Close()

	h.add(5) // every entry is a full batch; only Window of them may go
	h.batches(2)
	a, b := h.next(1), h.next(1)
	a.done <- nil
	b.done <- nil
	for i := 0; i < 3; i++ {
		h.next(1).done <- nil // each completion admits one more
	}
	h.quiesce(0)
	h.batches(5)
	if peak := h.peak.Load(); peak != 2 {
		t.Fatalf("%d exchanges ran at once, want Window = 2", peak)
	}
}

func TestTargetDoublesOnBacklogUpToMaxBatch(t *testing.T) {
	h := newHarness(t, Options{MinBatch: 2, MaxBatch: 8, Window: 1})
	defer h.p.Close()

	h.add(2)
	h.next(2).done <- nil
	h.quiesce(0)
	h.target(2) // completion found an empty queue: no growth

	h.add(2)
	c := h.next(2)
	h.add(5) // backlog behind the one in-flight batch
	c.done <- nil
	c = h.next(4)
	h.target(4)

	h.add(19) // 1 left over + 19 = 20 queued
	c.done <- nil
	c = h.next(8)
	h.target(8)
	c.done <- nil
	c = h.next(8) // 12 queued ≥ 8, but the target is capped
	h.target(8)
	c.done <- nil
	h.quiesce(0)
	h.batches(5) // 4 left, under the target: parked

	h.p.Flush()
	h.next(4).done <- nil
}

func TestTimerFlushHalvesTargetDownToMinBatch(t *testing.T) {
	h := newHarness(t, Options{MinBatch: 3, MaxBatch: 64, MaxDelay: 5 * time.Millisecond})
	defer h.p.Close()
	h.p.Mu.Lock()
	h.p.dests[1] = &dest{target: 8} // as if a burst had grown it
	h.p.Mu.Unlock()

	h.add(4) // half the target or more: not latency-bound
	h.next(4).done <- nil
	h.target(8)
	h.add(1)
	h.next(1).done <- nil
	h.target(4)
	h.add(1)
	h.next(1).done <- nil
	h.target(3) // 4/2 floors at MinBatch
	h.add(1)
	h.next(1).done <- nil
	h.target(3)
}

func TestRerouteIsBounded(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name               string
		fail               error // Exchange's error; nil settles ErrWrongOwner
		exchanges          int
		reports, refreshes int32
		want               error
	}{
		{"transport", msg.ErrTimeout, 1 + memcloud.MaxRetries, 1 + memcloud.MaxRetries, 1 + memcloud.MaxRetries, msg.ErrTimeout},
		{"wrong owner", nil, 1 + memcloud.MaxRetries, 0, 1 + memcloud.MaxRetries, memcloud.ErrWrongOwner},
		{"not a routing failure", boom, 1, 0, 0, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, Options{MinBatch: 1})
			defer h.p.Close()
			e := h.add(1)[0]
			for i := 0; i < tc.exchanges; i++ {
				c := h.next(1)
				if tc.fail == nil {
					c.batch[0].Settle(nil, memcloud.ErrWrongOwner)
				}
				c.done <- tc.fail
			}
			if err := wait(t, e); !errors.Is(err, tc.want) {
				t.Fatalf("resolved %v, want %v", err, tc.want)
			}
			h.quiesce(0)
			h.batches(int64(tc.exchanges))
			if got := h.p.retries.Load(); got != int64(tc.exchanges-1) {
				t.Fatalf("retries = %d, want %d", got, tc.exchanges-1)
			}
			if r, f := h.c.reports.Load(), h.c.refreshes.Load(); r != tc.reports || f != tc.refreshes {
				t.Fatalf("reports, refreshes = %d, %d, want %d, %d", r, f, tc.reports, tc.refreshes)
			}
		})
	}
}

func TestCloseResolvesQueuedAndSurvivesLateCompletion(t *testing.T) {
	h := newHarness(t, Options{MinBatch: 1, MaxBatch: 1, Window: 1})
	es := h.add(2) // one in flight, one queued behind the window
	c := h.next(1)
	h.p.Close()
	if err := wait(t, es[1]); err != errTestClosed {
		t.Fatalf("queued entry resolved %v at Close", err)
	}

	// The in-flight batch fails after Close and asks for a re-route: it
	// must resolve, not re-enter the queues.
	c.done <- msg.ErrTimeout
	if err := wait(t, es[0]); err != errTestClosed {
		t.Fatalf("late completion resolved %v", err)
	}
	h.quiesce(0)
	h.batches(1)
	h.p.Mu.Lock()
	if d := h.p.dests[1]; d.timer != nil || len(d.queue) != 0 {
		t.Fatalf("closed pipeline holds a timer (%v) or %d queued entries", d.timer != nil, len(d.queue))
	}
	h.p.Mu.Unlock()
	if err := wait(t, h.add(1)[0]); err != errTestClosed {
		t.Fatalf("enqueue after Close resolved %v", err)
	}
}

func TestCancelledDrainDropsItsLatch(t *testing.T) {
	h := newHarness(t, Options{MinBatch: 4})
	defer h.p.Close()
	h.add(1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() { errc <- h.p.Drain(ctx) }()
	c := h.next(1) // Drain flushed it; it stays in flight
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Drain = %v, want Canceled", err)
	}
	h.add(2)
	h.batches(1) // no waiter left: below the watermark means parked
	c.done <- nil
	go func() { errc <- h.p.Drain(context.Background()) }()
	h.next(2).done <- nil
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
