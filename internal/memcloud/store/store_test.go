package store_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/store"
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

func TestPutAsyncWritesEveryKey(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(4, reg))
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()

	const n = 400
	for k := uint64(0); k < n; k++ {
		w.PutAsync(k, val(24, byte(k)))
	}
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		got, err := s0.Get(context.Background(), k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !bytes.Equal(got, val(24, byte(k))) {
			t.Fatalf("key %d: corrupt value", k)
		}
	}

	scope := reg.Scope("store.m0")
	keys := scope.Counter("keys").Load()
	batches := scope.Counter("batches").Load()
	if keys != n {
		t.Fatalf("keys = %d, want %d", keys, n)
	}
	if batches == 0 || batches >= keys {
		t.Fatalf("batching saved nothing: %d batches for %d keys", batches, keys)
	}
	if saved := scope.Counter("round_trips_saved").Load(); saved != keys-batches {
		t.Fatalf("round_trips_saved = %d, want %d", saved, keys-batches)
	}
	if scope.Counter("local_batches").Load() == 0 {
		t.Fatal("no batch of 400 keys applied locally on a 4-machine cloud")
	}
	if scope.Gauge("inflight").Load() != 0 {
		t.Fatal("inflight gauge nonzero after Drain")
	}
}

func TestFutureResolvesIndividually(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()

	key := remoteKey(s0, 0)
	f := w.PutAsync(key, val(16, 3))
	w.Flush()
	if _, err := f.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := s0.Get(context.Background(), key)
	if err != nil || !bytes.Equal(got, val(16, 3)) {
		t.Fatalf("write not visible after future resolved: %v", err)
	}
}

func TestPutOverPutCoalescesLastWriteWins(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	// A huge MinBatch and MaxDelay keep the queue parked until Flush, so
	// both writes are guaranteed to meet in the queue.
	w := store.New(s0, store.Options{MinBatch: 1024, MaxDelay: time.Minute, Metrics: reg})
	defer w.Close()

	key := remoteKey(s0, 0)
	f1 := w.PutAsync(key, val(16, 1))
	f2 := w.PutAsync(key, val(16, 2))
	if f1 != f2 {
		t.Fatal("coalesced Put did not share the queued future")
	}
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := s0.Get(context.Background(), key)
	if err != nil || !bytes.Equal(got, val(16, 2)) {
		t.Fatalf("last write did not win: %v", err)
	}
	scope := reg.Scope("store.m0")
	if hits := scope.Counter("coalesce_hits").Load(); hits != 1 {
		t.Fatalf("coalesce_hits = %d, want 1", hits)
	}
	if keys := scope.Counter("keys").Load(); keys != 1 {
		t.Fatalf("coalesced pair shipped %d wire slots, want 1", keys)
	}
}

func TestSameKeyOpsOrderThroughChain(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := gatedSlave{Slave: c.Slave(0), gate: make(chan struct{})}

	w := store.New(s0, store.Options{MinBatch: 1024, MaxDelay: time.Minute, Metrics: reg})
	defer w.Close()
	batches := reg.Scope("store.m0").Counter("batches")

	// The first Put ships and parks at the gate; a second Put to the key
	// must chain behind it, not coalesce into a payload already on its way
	// and not race it in a second frame.
	key := localKey(s0.Slave, 0)
	f1 := w.PutAsync(key, val(8, 1))
	w.Flush()
	f2 := w.PutAsync(key, val(8, 2))
	if f1 == f2 {
		t.Fatal("Put coalesced into a shipped Put")
	}
	w.Flush()
	if got := batches.Load(); got != 1 {
		t.Fatalf("chained Put shipped while its predecessor was in flight: %d batches", got)
	}
	close(s0.gate)
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := batches.Load(); got != 2 {
		t.Fatalf("batches = %d, want 2 (the chained Put ships once its predecessor resolves)", got)
	}
	got, err := s0.Get(context.Background(), key)
	if err != nil || !bytes.Equal(got, val(8, 2)) {
		t.Fatalf("chained Put did not land last: %v", err)
	}
}

func TestDrainReturnsFirstError(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()
	// A cell larger than a trunk: its owner refuses it.
	w.PutAsync(remoteKey(s0, 0), make([]byte, 8<<20))
	if err := w.Drain(context.Background()); !errors.Is(err, store.ErrRejected) {
		t.Fatalf("Drain = %v, want ErrRejected", err)
	}
	// The error is consumed: a fresh Drain over a clean pipeline is nil.
	if err := w.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain = %v, want nil", err)
	}
}

func TestCloseResolvesQueuedFutures(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := gatedSlave{Slave: c.Slave(0), gate: make(chan struct{})}

	w := store.New(s0, store.Options{MinBatch: 1024, MaxDelay: time.Minute, Metrics: reg})
	key := localKey(s0.Slave, 0)
	shipped := w.PutAsync(key, val(8, 1))
	w.Flush() // parks at the gate
	chained := w.PutAsync(key, val(8, 2))
	queued := w.PutAsync(remoteKey(s0.Slave, 0), val(8, 3))
	w.Close()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("queued future after Close: %v, want ErrClosed", err)
	}
	close(s0.gate)
	if _, err := shipped.Wait(context.Background()); err != nil {
		t.Fatalf("future already shipped at Close: %v, want nil", err)
	}
	// The chained successor must cascade once its predecessor resolves.
	if _, err := chained.Wait(context.Background()); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("chained future after Close: %v, want ErrClosed", err)
	}
	if _, err := w.PutAsync(key, val(8, 4)).Wait(context.Background()); !errors.Is(err, store.ErrClosed) {
		t.Fatal("write after Close must resolve ErrClosed")
	}
}

func TestAdaptiveBatchSizeGrowsUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{MinBatch: 8, MaxBatch: 128, Metrics: reg})
	defer w.Close()
	const n = 3000
	for k := uint64(0); k < n; k++ {
		w.PutAsync(k, val(16, byte(k)))
	}
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	scope := reg.Scope("store.m0")
	snap := scope.Histogram("batch_size").Snapshot()
	if snap.Count == 0 {
		t.Fatal("no batches recorded")
	}
	if snap.Max <= 8 {
		t.Fatalf("batch size never grew past MinBatch: max=%d", snap.Max)
	}
	if snap.Max > 128 {
		t.Fatalf("batch size exceeded MaxBatch: max=%d", snap.Max)
	}
}

func TestFailedMachineWritesResolveViaRecovery(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(4, reg)
	cfg.Msg.CallTimeout = 250 * time.Millisecond
	c := memcloud.New(cfg)
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()

	// Kill a machine, then write keys it owned: the pipeline must report
	// the failure, wait out the table repair, and land every write on the
	// new owner. §6.2: "report the failure, refresh the table, retry".
	victim := msg.MachineID(3)
	var victimKeys []uint64
	for k := uint64(0); len(victimKeys) < 40; k++ {
		if s0.Owner(k) == victim {
			victimKeys = append(victimKeys, k)
		}
	}
	c.KillMachine(victim)

	for _, k := range victimKeys {
		w.PutAsync(k, val(20, byte(k)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := w.Drain(ctx); err != nil {
		t.Fatalf("Drain after machine failure: %v", err)
	}
	for _, k := range victimKeys {
		got, err := s0.Get(context.Background(), k)
		if err != nil || !bytes.Equal(got, val(20, byte(k))) {
			t.Fatalf("key %d not re-routed to new owner: %v", k, err)
		}
	}
	if reg.Scope("store.m0").Counter("retries").Load() == 0 {
		t.Fatal("no retries counted despite writing to a dead owner")
	}
}

func TestWriterBatchesAmortizeWAL(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(2, reg)
	cfg.BufferedLogging = true
	c := memcloud.New(cfg)
	defer c.Close()
	s0 := c.Slave(0)

	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()
	const n = 500
	for k := uint64(0); k < n; k++ {
		w.PutAsync(k, val(16, byte(k)))
	}
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var groups, appended int64
	for _, v := range reg.Snapshot() {
		switch {
		case v.Kind == "counter" && hasSuffix(v.Name, ".group_commits"):
			groups += v.Int
		case v.Kind == "counter" && hasSuffix(v.Name, ".bytes_appended"):
			appended += v.Int
		}
	}
	if groups == 0 {
		t.Fatal("no WAL group commits recorded")
	}
	if groups >= n {
		t.Fatalf("WAL group commit amortized nothing: %d appends for %d writes", groups, n)
	}
	if appended == 0 {
		t.Fatal("wal.bytes_appended not counted")
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// gatedSlave parks every local multi-put on a gate, holding its batch in
// flight for as long as the test wants.
type gatedSlave struct {
	*memcloud.Slave
	gate chan struct{}
}

func (g gatedSlave) LocalMultiPut(items []memcloud.MultiPutItem) []byte {
	<-g.gate
	return g.Slave.LocalMultiPut(items)
}

// A Drain that gives up must take its flush-everything latch with it:
// writes issued afterwards batch normally instead of shipping one by one
// for as long as the pipeline stays busy.
func TestCancelledDrainRestoresBatching(t *testing.T) {
	reg := obs.NewRegistry()
	c := memcloud.New(testConfig(2, reg))
	defer c.Close()
	s0 := gatedSlave{Slave: c.Slave(0), gate: make(chan struct{})}

	w := store.New(s0, store.Options{MinBatch: 1024, MaxDelay: time.Minute, Metrics: reg})
	defer w.Close()
	batches := reg.Scope("store.m0").Counter("batches")

	// One local write, held in flight by the gate, keeps the pipeline
	// busy; the Drain that flushed it times out waiting.
	w.PutAsync(localKey(s0.Slave, 0), val(8, 1))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := w.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain behind a parked batch = %v, want DeadlineExceeded", err)
	}
	if got := batches.Load(); got != 1 {
		t.Fatalf("batches = %d after the first Drain, want 1", got)
	}

	for k := uint64(1000); k < 1100; k++ {
		w.PutAsync(k, val(8, byte(k)))
	}
	if got := batches.Load(); got != 1 {
		t.Fatalf("%d batches shipped below the watermark after a cancelled Drain", got-1)
	}
	w.Flush()
	if got := batches.Load(); got == 1 {
		t.Fatal("Flush shipped nothing")
	}
	close(s0.gate)
	if err := w.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
