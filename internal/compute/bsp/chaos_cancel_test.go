package bsp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// waitGoroutinesSettle retries until the goroutine count drops back to
// the pre-operation baseline (plus a little slack for runtime helpers
// and chaos-delayed frames still in flight). A leaked worker, watcher,
// or barrier goroutine keeps the count elevated and fails the test.
func waitGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCancelMidSuperstep cancels a long PageRank run while frames
// are being dropped and reordered. Run must surface context.Canceled
// well within one CallTimeout (the barrier waiters cannot be parked
// until a lost marker times out), count the cancellation, and release
// every goroutine it started.
func TestChaosCancelMidSuperstep(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, ch := memcloud.NewChaosCloud(memcloud.Config{
				Machines: 2,
				Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 5 * time.Second},
			}, seed)
			t.Cleanup(c.Close)
			g := ringGraph(t, c, 60)
			// Faults go live only after the clean graph load. Drop + jitter
			// only: the superstep barrier rides per-sender FIFO order, which
			// Delay deliberately breaks (and a dropped barrier marker is the
			// exact wedge cancellation exists to rescue — async frames have
			// no retransmit, so without the cancel this run never returns).
			ch.SetDefault(msg.Policy{
				Drop:   0.02,
				Jitter: 200 * time.Microsecond,
			})

			e := New(g, Options{})
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(15 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			// Effectively unbounded: only the cancel ends this run.
			_, err := e.Run(ctx, &pagerank{iters: 1 << 20})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			// 15ms fuse + cancel-to-return must stay under one CallTimeout.
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("cancel took %v, want under one CallTimeout", d)
			}
			if got := c.Metrics().Scope("bsp").Counter("runs_cancelled").Load(); got == 0 {
				t.Fatal("runs_cancelled not incremented")
			}
			waitGoroutinesSettle(t, base)
		})
	}
}
