package fetch_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// TestChaosCancelMidMultiget cancels the waiting side of a multiget
// while frames are dropped and delayed. Cancelling a Wait unhooks only
// the caller — it is counted in futures_cancelled, the underlying
// futures still resolve with their batch (no wedge), and a fresh
// GetBatch through the same fetcher succeeds afterwards.
func TestChaosCancelMidMultiget(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			// A short call timeout detects dropped frames in milliseconds;
			// the long failure timeout leaves recovery to failure reports.
			cfg := testConfig(3, reg)
			cfg.Msg.CallTimeout = 200 * time.Millisecond
			cfg.Cluster.FailureTimeout = time.Minute
			c, ch := memcloud.NewChaosCloud(cfg, seed)
			defer c.Close()
			s0 := c.Slave(0)

			const n = 100
			keys := make([]uint64, n)
			for k := uint64(0); k < n; k++ {
				keys[k] = k
				if err := s0.Put(context.Background(), k, val(16, byte(k))); err != nil {
					t.Fatal(err)
				}
			}
			// Every frame delayed: no future can resolve before the
			// cancel below lands.
			ch.SetDefault(msg.Policy{
				Drop:     0.02,
				Delay:    1.0,
				MaxDelay: 5 * time.Millisecond,
			})

			f := fetch.New(s0, fetch.Options{Metrics: reg})
			defer f.Close()
			futs := make([]*fetch.Future, n)
			for i, k := range keys {
				futs[i] = f.GetAsync(k)
			}
			f.Flush()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cancelledWaits := 0
			for _, fu := range futs {
				if _, err := fu.Wait(ctx); errors.Is(err, context.Canceled) {
					cancelledWaits++
				}
			}
			if cancelledWaits == 0 {
				t.Fatal("no Wait observed the cancelled context")
			}
			if got := reg.Scope("fetch.m0").Counter("futures_cancelled").Load(); got == 0 {
				t.Fatal("futures_cancelled not incremented")
			}

			// The futures themselves were not cancelled — each must still
			// resolve with its batch, value or error, within bounded time.
			deadline := time.After(30 * time.Second)
			for i, fu := range futs {
				select {
				case <-fu.Done():
				case <-deadline:
					t.Fatalf("future for key %d wedged after a cancelled Wait", keys[i])
				}
			}

			// And the fetcher is still healthy: with the faults lifted, a
			// fresh batch fetch with a live context returns every value.
			ch.SetDefault(msg.Policy{})
			got := 0
			f.GetBatch(context.Background(), keys[:10], func(_ int, key uint64, v []byte, err error) {
				if err == nil && len(v) == 16 {
					got++
				}
			})
			if got != 10 {
				t.Fatalf("fresh GetBatch after cancel: %d of 10 values", got)
			}
		})
	}
}
