package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// chaosConfig tunes for fault injection: a short call timeout so dropped
// frames are detected in milliseconds, buffered logging so acknowledged
// writes have a durability story, and a failure timeout high enough that
// only the explicit failure-report path drives recovery.
func chaosConfig(machines int, reg *obs.Registry) memcloud.Config {
	cfg := testConfig(machines, reg)
	cfg.BufferedLogging = true
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	cfg.Cluster.FailureTimeout = time.Minute
	return cfg
}

// waitAllResolve fails the test if any write future is still unresolved
// after the deadline — the pipeline's core promise is that no future
// wedges, whatever the network does. Returns the keys whose writes were
// acknowledged (resolved nil): the durability set.
func waitAllResolve(t *testing.T, keys []uint64, futs []*store.Future, d time.Duration) (acked []uint64, errs int) {
	t.Helper()
	deadline := time.After(d)
	for i, fu := range futs {
		select {
		case <-fu.Done():
		case <-deadline:
			t.Fatalf("future for key %d wedged: unresolved after %v", keys[i], d)
		}
		if _, err := fu.Wait(context.Background()); err != nil {
			errs++
			continue
		}
		acked = append(acked, keys[i])
	}
	return acked, errs
}

// TestChaosWriterDeliversUnderDupDelay: duplicated and reordered frames
// are contract-preserving faults for Put (last-write-wins, idempotent) —
// every future must resolve nil, every value must read back correct, and
// nothing may escalate into a recovery.
func TestChaosWriterDeliversUnderDupDelay(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			c, ch := memcloud.NewChaosCloud(chaosConfig(3, reg), seed)
			defer c.Close()
			s0 := c.Slave(0)
			ch.SetDefault(msg.Policy{
				Dup:      0.10,
				Delay:    0.30,
				MaxDelay: 2 * time.Millisecond,
				Jitter:   100 * time.Microsecond,
			})

			w := store.New(s0, store.Options{Metrics: reg})
			defer w.Close()
			const n = 300
			keys := make([]uint64, n)
			futs := make([]*store.Future, n)
			for k := uint64(0); k < n; k++ {
				keys[k] = k
				futs[k] = w.PutAsync(k, val(16, byte(k)))
			}
			w.Flush()
			acked, errs := waitAllResolve(t, keys, futs, 30*time.Second)
			if errs != 0 || len(acked) != n {
				t.Fatalf("%d acked, %d errors under benign chaos; want %d acked", len(acked), errs, n)
			}
			for _, k := range keys {
				got, err := s0.Get(context.Background(), k)
				if err != nil || !bytes.Equal(got, val(16, byte(k))) {
					t.Fatalf("key %d corrupt under benign chaos: %v", k, err)
				}
			}
			if rec := c.Stats().Recoveries; rec != 0 {
				t.Fatalf("spurious recoveries under benign chaos: %d", rec)
			}
		})
	}
}

// TestChaosWriterAckedWritesDurableUnderDrops: with frames silently lost,
// calls time out, batches re-route, ambiguously-applied ops re-send — and
// still (a) no future wedges, (b) every ACKED write is readable with
// correct bytes, and (c) no Add to a fresh key resolves ErrExists: the
// only way a fresh key can "exist" is our own ambiguous first attempt,
// which the pipeline must recognize as its own success. (Dup stays 0:
// frame duplication re-runs handlers, so a duplicated Add can observe
// itself — an at-least-once hazard shared with the sync Add path, not a
// pipeline property.)
func TestChaosWriterAckedWritesDurableUnderDrops(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			c, ch := memcloud.NewChaosCloud(chaosConfig(3, reg), seed)
			defer c.Close()
			s0 := c.Slave(0)
			ch.SetDefault(msg.Policy{
				Drop:     0.03,
				Delay:    0.20,
				MaxDelay: 2 * time.Millisecond,
			})

			w := store.New(s0, store.Options{Metrics: reg})
			defer w.Close()
			const n = 200
			keys := make([]uint64, n)
			futs := make([]*store.Future, n)
			for k := uint64(0); k < n; k++ {
				keys[k] = k
				if k%3 == 0 {
					futs[k] = w.AddAsync(k, val(16, byte(k)))
				} else {
					futs[k] = w.PutAsync(k, val(16, byte(k)))
				}
			}
			w.Flush()
			deadline := time.After(60 * time.Second)
			ackErrs := 0
			var acked []uint64
			for i, fu := range futs {
				select {
				case <-fu.Done():
				case <-deadline:
					t.Fatalf("future for key %d wedged", keys[i])
				}
				_, err := fu.Wait(context.Background())
				switch {
				case err == nil:
					acked = append(acked, keys[i])
				case errors.Is(err, memcloud.ErrExists):
					t.Fatalf("Add to fresh key %d resolved ErrExists: pipeline blamed its own retry", keys[i])
				default:
					ackErrs++
				}
			}
			t.Logf("seed %d: %d acked, %d errors, retries=%d",
				seed, len(acked), ackErrs, reg.Scope("store.m0").Counter("retries").Load())
			if len(acked) == 0 {
				t.Fatal("no write acknowledged under lossy chaos")
			}
			// Lift the chaos and audit the durability set: every acked
			// write must be readable with the exact bytes that were acked.
			ch.SetDefault(msg.Policy{})
			for _, k := range acked {
				got, err := s0.Get(context.Background(), k)
				if err != nil {
					t.Fatalf("acked key %d lost: %v", k, err)
				}
				if !bytes.Equal(got, val(16, byte(k))) {
					t.Fatalf("acked key %d corrupt", k)
				}
			}
		})
	}
}

// TestChaosWriterMidBatchWrongOwnerFailover: the owner of a stream of
// writes dies mid-load. In-flight batches time out, the failure report
// recovers its trunks to survivors, queued writes re-route through the
// refreshed table — and every acknowledged write must be readable after
// the dust settles (kill-mid-load loses zero acked writes; the WAL group
// records back the ones acked before the kill).
func TestChaosWriterMidBatchWrongOwnerFailover(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := chaosConfig(4, reg)
			cfg.Cluster.FailureTimeout = 150 * time.Millisecond
			c, _ := memcloud.NewChaosCloud(cfg, seed)
			defer c.Close()
			s0 := c.Slave(0)

			victim := msg.MachineID(3)
			var keys []uint64
			for k := uint64(0); len(keys) < 120; k++ {
				if s0.Owner(k) == victim {
					keys = append(keys, k)
				}
			}

			// Slow batch formation slightly so the kill lands mid-stream:
			// some batches acked by the victim, some in flight, some queued.
			w := store.New(s0, store.Options{MaxBatch: 16, MinBatch: 8, Metrics: reg})
			defer w.Close()
			futs := make([]*store.Future, len(keys))
			for i, k := range keys {
				futs[i] = w.PutAsync(k, val(20, byte(k)))
				if i == len(keys)/2 {
					c.KillMachine(victim)
				}
			}
			w.Flush()
			acked, errs := waitAllResolve(t, keys, futs, 60*time.Second)
			t.Logf("seed %d: %d/%d acked, %d errors, retries=%d", seed,
				len(acked), len(keys), errs, reg.Scope("store.m0").Counter("retries").Load())
			if len(acked) == 0 {
				t.Fatal("no write survived the failover")
			}
			// Zero acked writes lost: writes acked by the victim pre-kill
			// replay from its WAL group records; writes acked post-kill
			// landed on the new owner.
			for _, k := range acked {
				got, err := getEventually(s0, k, 10*time.Second)
				if err != nil {
					t.Fatalf("acked key %d lost after mid-load kill: %v", k, err)
				}
				if !bytes.Equal(got, val(20, byte(k))) {
					t.Fatalf("acked key %d corrupt after mid-load kill", k)
				}
			}
			if owner := s0.Owner(keys[0]); owner == victim {
				t.Fatal("table still names the dead machine as owner")
			}
		})
	}
}

// getEventually reads a key, retrying transient post-failover errors (the
// table can commit before the new owner finishes loading the trunk).
func getEventually(s *memcloud.Slave, key uint64, d time.Duration) ([]byte, error) {
	deadline := time.Now().Add(d)
	for {
		got, err := s.Get(context.Background(), key)
		if err == nil {
			return got, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
