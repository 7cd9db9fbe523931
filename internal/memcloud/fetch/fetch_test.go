package fetch_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

func testConfig(machines int, reg *obs.Registry) memcloud.Config {
	return memcloud.Config{
		Machines: machines,
		Msg: msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   time.Second,
		},
		Metrics: reg,
	}
}

func val(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i)
	}
	return out
}

// remoteKey finds a key s does not own.
func remoteKey(s *memcloud.Slave, from uint64) uint64 {
	for k := from; ; k++ {
		if s.Owner(k) != s.ID() {
			return k
		}
	}
}

// localKey finds a key s owns.
func localKey(s *memcloud.Slave, from uint64) uint64 {
	for k := from; ; k++ {
		if s.Owner(k) == s.ID() {
			return k
		}
	}
}

func TestGetBatchFetchesEveryKey(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(4, reg))
	defer c.Close()
	s0 := c.Slave(0)

	const n = 400
	keys := make([]uint64, n)
	for k := uint64(0); k < n; k++ {
		keys[k] = k
		if err := s0.Put(context.Background(), k, val(24, byte(k))); err != nil {
			t.Fatal(err)
		}
	}

	f := fetch.New(s0, fetch.Options{Metrics: reg})
	defer f.Close()
	got := 0
	f.GetBatch(context.Background(), keys, func(i int, key uint64, v []byte, err error) {
		if err != nil {
			t.Fatalf("key %d: %v", key, err)
		}
		if !bytes.Equal(v, val(24, byte(key))) {
			t.Fatalf("key %d: corrupt value", key)
		}
		got++
	})
	if got != n {
		t.Fatalf("callback ran %d times, want %d", got, n)
	}

	scope := reg.Scope("fetch.m0")
	remote := scope.Counter("keys").Load()
	batches := scope.Counter("batches").Load()
	if remote == 0 || batches == 0 {
		t.Fatalf("no batched traffic: keys=%d batches=%d", remote, batches)
	}
	if batches >= remote {
		t.Fatalf("batching saved nothing: %d batches for %d remote keys", batches, remote)
	}
	if saved := scope.Counter("round_trips_saved").Load(); saved != remote-batches {
		t.Fatalf("round_trips_saved = %d, want %d", saved, remote-batches)
	}
	if scope.Counter("local_hits").Load() == 0 {
		t.Fatal("no key of 400 was served locally on a 4-machine cloud")
	}
}

func TestGetAsyncCoalescesDuplicateInFlightKeys(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	key := remoteKey(s0, 0)
	if err := s0.Put(context.Background(), key, val(16, 7)); err != nil {
		t.Fatal(err)
	}

	// Big watermark + long age bound: the key stays queued until Flush,
	// so the second GetAsync must find it pending.
	f := fetch.New(s0, fetch.Options{MinBatch: 64, MaxDelay: time.Hour, Metrics: reg})
	defer f.Close()
	fu1 := f.GetAsync(key)
	fu2 := f.GetAsync(key)
	if fu1 != fu2 {
		t.Fatal("duplicate in-flight key did not coalesce onto one future")
	}
	f.Flush()
	v, err := fu1.Wait(context.Background())
	if err != nil || !bytes.Equal(v, val(16, 7)) {
		t.Fatalf("coalesced future: val=%v err=%v", v, err)
	}

	scope := reg.Scope("fetch.m0")
	if hits := scope.Counter("coalesce_hits").Load(); hits != 1 {
		t.Fatalf("coalesce_hits = %d, want 1", hits)
	}
	// After resolution the key is no longer pending: a new GetAsync is a
	// fresh read, not a stale coalesce.
	fu3 := f.GetAsync(key)
	if fu3 == fu1 {
		t.Fatal("GetAsync after resolution returned the stale future")
	}
	f.Flush()
	if _, err := fu3.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLocalKeysResolveWithoutWire(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	key := localKey(s0, 0)
	if err := s0.Put(context.Background(), key, val(8, 3)); err != nil {
		t.Fatal(err)
	}
	f := fetch.New(s0, fetch.Options{Metrics: reg})
	defer f.Close()

	fu := f.GetAsync(key)
	select {
	case <-fu.Done():
	default:
		t.Fatal("local read did not resolve synchronously")
	}
	if v, err := fu.Wait(context.Background()); err != nil || !bytes.Equal(v, val(8, 3)) {
		t.Fatalf("local read: val=%v err=%v", v, err)
	}
	scope := reg.Scope("fetch.m0")
	if scope.Counter("local_hits").Load() != 1 {
		t.Fatal("local hit not counted")
	}
	if scope.Counter("batches").Load() != 0 {
		t.Fatal("local read went over the wire")
	}
}

func TestMissingKeyResolvesNotFound(t *testing.T) {
	c := memcloud.New(testConfig(2, obs.NewRegistry()))
	defer c.Close()
	s0 := c.Slave(0)

	f := fetch.New(s0, fetch.Options{Metrics: obs.NewRegistry()})
	defer f.Close()
	for _, key := range []uint64{localKey(s0, 500), remoteKey(s0, 500)} {
		if _, err := f.GetAsync(key).Wait(context.Background()); !errors.Is(err, memcloud.ErrNotFound) {
			t.Fatalf("key %d: got %v, want ErrNotFound", key, err)
		}
	}
}

func TestCloseResolvesQueuedFutures(t *testing.T) {
	c := memcloud.New(testConfig(2, obs.NewRegistry()))
	defer c.Close()
	s0 := c.Slave(0)

	f := fetch.New(s0, fetch.Options{MinBatch: 64, MaxDelay: time.Hour, Metrics: obs.NewRegistry()})
	fu := f.GetAsync(remoteKey(s0, 0))
	f.Close()
	if _, err := fu.Wait(context.Background()); !errors.Is(err, fetch.ErrClosed) {
		t.Fatalf("queued future after Close: %v, want ErrClosed", err)
	}
	if _, err := f.GetAsync(remoteKey(s0, 0)).Wait(context.Background()); !errors.Is(err, fetch.ErrClosed) {
		t.Fatal("GetAsync after Close must resolve ErrClosed")
	}
}

func TestAdaptiveBatchSizeGrowsUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	const n = 4000
	s1 := c.Slave(1)
	keys := make([]uint64, 0, n)
	for k := uint64(0); len(keys) < n; k++ {
		if s0.Owner(k) != s1.ID() {
			continue
		}
		if err := s0.Put(context.Background(), k, val(8, byte(k))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}

	// Window 1 forces a backlog to build behind the single in-flight
	// batch, which is exactly what the adaptive target feeds on.
	f := fetch.New(s0, fetch.Options{MinBatch: 8, Window: 1, Metrics: reg})
	defer f.Close()
	futs := make([]*fetch.Future, n)
	for i, k := range keys {
		futs[i] = f.GetAsync(k)
	}
	f.Flush()
	for i, fu := range futs {
		if _, err := fu.Wait(context.Background()); err != nil {
			t.Fatalf("key %d: %v", keys[i], err)
		}
	}
	hist := reg.Scope("fetch.m0").Histogram("batch_size").Snapshot()
	if hist.Max < 32 {
		t.Fatalf("batch size never grew past %d under a %d-key backlog", hist.Max, n)
	}
}

func TestFailedMachineKeysResolveViaRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(3, reg)
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	cfg.Cluster.FailureTimeout = time.Minute
	c := memcloud.New(cfg)
	defer c.Close()
	s0 := c.Slave(0)

	// Keys owned by machine 2, backed up so survivors can recover them.
	var keys []uint64
	for k := uint64(0); len(keys) < 20; k++ {
		if s0.Owner(k) == 2 {
			if err := s0.Put(context.Background(), k, val(16, byte(k))); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, k)
		}
	}
	if err := c.Backup(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(2)

	f := fetch.New(s0, fetch.Options{Metrics: reg})
	defer f.Close()
	f.GetBatch(context.Background(), keys, func(i int, key uint64, v []byte, err error) {
		if err != nil {
			t.Fatalf("key %d after owner death: %v", key, err)
		}
		if !bytes.Equal(v, val(16, byte(key))) {
			t.Fatalf("key %d: corrupt recovered value", key)
		}
	})
	if retries := reg.Scope("fetch.m0").Counter("retries").Load(); retries == 0 {
		t.Fatal("recovery did not go through the pipeline retry path")
	}
	if owner := s0.Owner(keys[0]); owner == 2 {
		t.Fatal("table still names the dead machine")
	}
}
