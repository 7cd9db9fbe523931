package memcloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"trinity/internal/hash"
	"trinity/internal/msg"
	"trinity/internal/trunk"
)

func testConfig(machines int) Config {
	return Config{
		Machines: machines,
		Msg: msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   time.Second,
		},
	}
}

func newCloud(t *testing.T, machines int) *Cloud {
	t.Helper()
	c := New(testConfig(machines))
	t.Cleanup(c.Close)
	return c
}

func val(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestPutGetSingleMachine(t *testing.T) {
	c := newCloud(t, 1)
	s := c.Slave(0)
	if err := s.Put(context.Background(), 1, val(32, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val(32, 1)) {
		t.Fatal("round trip mismatch")
	}
}

func TestPutGetAcrossMachines(t *testing.T) {
	c := newCloud(t, 4)
	// Write via slave 0, read via every other slave; keys spread over all
	// machines by the trunk hash.
	s0 := c.Slave(0)
	const n = 200
	for i := uint64(0); i < n; i++ {
		if err := s0.Put(context.Background(), i, val(24, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for m := 0; m < 4; m++ {
		s := c.Slave(m)
		for i := uint64(0); i < n; i += 17 {
			got, err := s.Get(context.Background(), i)
			if err != nil {
				t.Fatalf("machine %d key %d: %v", m, i, err)
			}
			if !bytes.Equal(got, val(24, byte(i))) {
				t.Fatalf("machine %d key %d: corrupt", m, i)
			}
		}
	}
	// Both local and remote paths must have been exercised.
	st := c.Stats()
	if st.LocalOps == 0 || st.RemoteOps == 0 {
		t.Fatalf("ops not split across paths: %+v", st)
	}
}

func TestKeysSpreadAcrossMachines(t *testing.T) {
	c := newCloud(t, 4)
	s := c.Slave(0)
	counts := map[msg.MachineID]int{}
	for i := uint64(0); i < 1000; i++ {
		counts[s.Owner(i)]++
	}
	for m := msg.MachineID(0); m < 4; m++ {
		if counts[m] < 100 {
			t.Fatalf("machine %d owns only %d/1000 keys", m, counts[m])
		}
	}
}

func TestGetMissing(t *testing.T) {
	c := newCloud(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := c.Slave(i).Get(context.Background(), 12345); !errors.Is(err, ErrNotFound) {
			t.Fatalf("slave %d: Get missing = %v, want ErrNotFound", i, err)
		}
	}
}

func TestAddDuplicate(t *testing.T) {
	c := newCloud(t, 2)
	s := c.Slave(0)
	// Pick one local and one remote key.
	var localKey, remoteKey uint64
	for k := uint64(0); k < 100; k++ {
		if s.Owner(k) == s.ID() {
			localKey = k
		} else {
			remoteKey = k
		}
	}
	for _, k := range []uint64{localKey, remoteKey} {
		if err := s.Add(context.Background(), k, val(8, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(context.Background(), k, val(8, 2)); !errors.Is(err, ErrExists) {
			t.Fatalf("key %d: duplicate Add = %v, want ErrExists", k, err)
		}
	}
}

func TestRemove(t *testing.T) {
	c := newCloud(t, 3)
	s := c.Slave(0)
	for i := uint64(0); i < 50; i++ {
		s.Put(context.Background(), i, val(16, byte(i)))
	}
	for i := uint64(0); i < 50; i += 2 {
		if err := s.Remove(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 50; i++ {
		_, err := s.Get(context.Background(), i)
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("key %d should be gone: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("key %d lost: %v", i, err)
		}
	}
	if err := s.Remove(context.Background(), 999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Remove missing = %v", err)
	}
}

func TestAppendAcrossMachines(t *testing.T) {
	c := newCloud(t, 3)
	s := c.Slave(0)
	for i := uint64(0); i < 30; i++ {
		if err := s.Put(context.Background(), i, val(8, byte(i))); err != nil {
			t.Fatal(err)
		}
		want := val(8, byte(i))
		for j := 0; j < 5; j++ {
			extra := val(8, byte(j+100))
			if err := s.Append(context.Background(), i, extra); err != nil {
				t.Fatal(err)
			}
			want = append(want, extra...)
		}
		got, err := s.Get(context.Background(), i)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d append chain corrupt: %v", i, err)
		}
	}
}

func TestContains(t *testing.T) {
	c := newCloud(t, 2)
	s := c.Slave(0)
	s.Put(context.Background(), 7, val(4, 1))
	for i := 0; i < 2; i++ {
		found, err := c.Slave(i).Contains(context.Background(), 7)
		if err != nil || !found {
			t.Fatalf("slave %d: Contains(7) = %v, %v", i, found, err)
		}
		found, err = c.Slave(i).Contains(context.Background(), 8)
		if err != nil || found {
			t.Fatalf("slave %d: Contains(8) = %v, %v", i, found, err)
		}
	}
}

func TestViewLocalOnly(t *testing.T) {
	c := newCloud(t, 2)
	s := c.Slave(0)
	var localKey, remoteKey uint64
	for k := uint64(0); k < 100; k++ {
		if s.Owner(k) == s.ID() {
			localKey = k
		} else {
			remoteKey = k
		}
	}
	s.Put(context.Background(), localKey, val(8, 1))
	s.Put(context.Background(), remoteKey, val(8, 2))
	err := s.Update(localKey, func(p []byte) error {
		p[0] = 0xAA
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen byte
	if err := s.View(localKey, func(p []byte) error { seen = p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 0xAA {
		t.Fatal("local update lost")
	}
	if err := s.View(remoteKey, func([]byte) error { return nil }); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("remote View = %v, want ErrWrongOwner", err)
	}
	if err := s.Update(remoteKey, func([]byte) error { return nil }); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("remote Update = %v, want ErrWrongOwner", err)
	}
}

func TestMachineFailureRecovery(t *testing.T) {
	c := newCloud(t, 4)
	s0 := c.Slave(0)
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := s0.Put(context.Background(), i, val(20, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Persist everything, then crash a non-leader machine.
	if err := c.Backup(); err != nil {
		t.Fatal(err)
	}
	victim := msg.MachineID(3)
	c.KillMachine(victim)

	// Every key must still be readable: keys owned by the victim trigger
	// the failure-report protocol, table reassignment, and TFS reload.
	for i := uint64(0); i < n; i++ {
		got, err := s0.Get(context.Background(), i)
		if err != nil {
			t.Fatalf("key %d after crash: %v", i, err)
		}
		if !bytes.Equal(got, val(20, byte(i))) {
			t.Fatalf("key %d corrupted after recovery", i)
		}
	}
	if st := c.Stats(); st.Recoveries == 0 {
		t.Fatal("no trunks were recovered")
	}
}

// TestRecoveryMovesTrunkGen: each machine that takes over a dead
// machine's trunks moves its TrunkGen once per trunk installed, which is
// what caches of the local partition (graph views) key on; a survivor
// that gains nothing keeps its count.
func TestRecoveryMovesTrunkGen(t *testing.T) {
	c := newCloud(t, 4)
	const victim = msg.MachineID(3)
	key := keysOwnedBy(t, c, victim, 1)[0]
	lost := len(c.Slave(int(victim)).LocalTrunkIDs())
	var gen [3]uint64
	var held [3]int
	for i := range gen {
		gen[i] = c.Slave(i).TrunkGen()
		held[i] = len(c.Slave(i).LocalTrunkIDs())
	}
	c.KillMachine(victim)
	// Touching a key the victim owned reports the failure.
	getSettled(t, c.Slave(0), key)
	gained := func(i int) int { return len(c.Slave(i).LocalTrunkIDs()) - held[i] }
	deadline := time.Now().Add(5 * time.Second)
	for gained(0)+gained(1)+gained(2) < lost {
		if time.Now().After(deadline) {
			t.Fatalf("survivors took over %d of %d trunks", gained(0)+gained(1)+gained(2), lost)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := range gen {
		if moved := c.Slave(i).TrunkGen() - gen[i]; moved != uint64(gained(i)) {
			t.Errorf("machine %d: TrunkGen moved %d for %d trunks taken over", i, moved, gained(i))
		}
	}
}

func TestWritesAfterRecovery(t *testing.T) {
	c := newCloud(t, 3)
	s0 := c.Slave(0)
	for i := uint64(0); i < 100; i++ {
		s0.Put(context.Background(), i, val(10, byte(i)))
	}
	c.Backup()
	c.KillMachine(2)
	// New writes to keys previously owned by the dead machine must land
	// on the new owners.
	for i := uint64(100); i < 200; i++ {
		if err := s0.Put(context.Background(), i, val(10, byte(i))); err != nil {
			t.Fatalf("post-crash write %d: %v", i, err)
		}
	}
	for i := uint64(100); i < 200; i++ {
		got, err := s0.Get(context.Background(), i)
		if err != nil || !bytes.Equal(got, val(10, byte(i))) {
			t.Fatalf("post-crash read %d: %v", i, err)
		}
	}
}

func TestBufferedLoggingRecoversUnbackedWrites(t *testing.T) {
	cfg := testConfig(3)
	cfg.BufferedLogging = true
	c := New(cfg)
	defer c.Close()
	s0 := c.Slave(0)
	for i := uint64(0); i < 60; i++ {
		if err := s0.Put(context.Background(), i, val(12, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// NO backup: writes live only in memory plus the TFS log.
	c.KillMachine(2)
	for i := uint64(0); i < 60; i++ {
		got, err := s0.Get(context.Background(), i)
		if err != nil {
			t.Fatalf("key %d lost without backup: %v (buffered logging broken)", i, err)
		}
		if !bytes.Equal(got, val(12, byte(i))) {
			t.Fatalf("key %d corrupted", i)
		}
	}
}

func TestWithoutLoggingUnbackedWritesAreLost(t *testing.T) {
	// Control for the test above: without buffered logging and without a
	// backup, the dead machine's cells are gone. This documents the
	// durability contract rather than a bug.
	c := newCloud(t, 3)
	s0 := c.Slave(0)
	var victimKeys []uint64
	for i := uint64(0); i < 60; i++ {
		s0.Put(context.Background(), i, val(12, byte(i)))
		if s0.Owner(i) == 2 {
			victimKeys = append(victimKeys, i)
		}
	}
	if len(victimKeys) == 0 {
		t.Skip("no keys landed on the victim")
	}
	c.KillMachine(2)
	lost := 0
	for _, k := range victimKeys {
		if _, err := s0.Get(context.Background(), k); errors.Is(err, ErrNotFound) {
			lost++
		}
	}
	if lost != len(victimKeys) {
		t.Fatalf("%d/%d unbacked cells survived, expected all lost", len(victimKeys)-lost, len(victimKeys))
	}
}

// trunkStats snapshots every trunk of every live machine.
func trunkStats(c *Cloud) []trunk.Stats {
	var out []trunk.Stats
	for _, s := range c.slaves {
		s.mu.RLock()
		for _, tr := range s.trunks {
			out = append(out, tr.Stats())
		}
		s.mu.RUnlock()
	}
	return out
}

func TestTrunksCompactThemselvesUnderChurn(t *testing.T) {
	// Finding 12 in benchmark/README.md: when nothing compacts until an
	// allocation fails, churned trunks sit mostly on gaps. A default
	// cloud (16 trunks of 4 MiB, 64 KiB pages) holding more than 1 MiB
	// per trunk takes size-changing Puts and 8-byte Appends until their
	// relocations have rewritten twice its whole trunk capacity; it must
	// end with every trunk below the compaction trigger, commit at most
	// 2.5 bytes per byte it holds, and still hold every cell intact.
	c := New(Config{Machines: 4})
	defer c.Close()
	s := c.Slave(0)
	ctx := context.Background()
	rng := hash.NewRNG(12)
	const cells, minSize = 4000, 4096
	// A cell is val(sizes[k], k) followed by appends[k] val(8, k) chunks.
	var sizes, appends [cells]int
	size := func() int { return minSize + rng.Intn(minSize) }
	for k := uint64(0); k < cells; k++ {
		sizes[k] = size()
		if err := s.Put(ctx, k, val(sizes[k], byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	var capacity int64
	for _, st := range trunkStats(c) {
		if st.LiveBytes < 1<<20 {
			t.Fatalf("preload left a trunk with %d live bytes, want >= 1 MiB", st.LiveBytes)
		}
		capacity += st.Capacity
	}
	// Every cell stays at least minSize bytes, so each relocation
	// rewrites at least that much.
	relocated := func() (n int64) {
		for _, st := range trunkStats(c) {
			n += st.Relocations * (16 + minSize)
		}
		return n
	}
	ops := 0
	for ; relocated() < 2*capacity; ops++ {
		for i := 0; i < 1000; i++ {
			k := uint64(rng.Intn(cells))
			var err error
			if rng.Intn(2) == 0 {
				sizes[k], appends[k] = size(), 0
				err = s.Put(ctx, k, val(sizes[k], byte(k)))
			} else {
				appends[k]++
				err = s.Append(ctx, k, val(8, byte(k)))
			}
			if err != nil {
				t.Fatalf("after %d ops: %v", ops*1000+i, err)
			}
		}
	}
	var held int64
	for i, st := range trunkStats(c) {
		if st.GapBytes >= st.LiveBytes && st.GapBytes >= trunk.DefaultPageSize {
			t.Errorf("trunk %d above the trigger: %d gap bytes, %d live", i, st.GapBytes, st.LiveBytes)
		}
		held += st.LiveBytes + st.ReservedBytes
	}
	ratio := float64(c.MemoryUsage()) / float64(held)
	t.Logf("%dk ops relocated %d MiB; committed %.2f bytes per byte held", ops, relocated()>>20, ratio)
	if ratio > 2.5 {
		t.Errorf("committed %.2f bytes per byte held, want <= 2.5", ratio)
	}
	for k := uint64(0); k < cells; k++ {
		want := val(sizes[k], byte(k))
		for i := 0; i < appends[k]; i++ {
			want = append(want, val(8, byte(k))...)
		}
		if got, err := s.Get(ctx, k); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cell %d after churn: %d bytes, want %d, err %v", k, len(got), len(want), err)
		}
	}
}

func TestKVWriteMixAtHundredThousandKeys(t *testing.T) {
	// Finding 7 in benchmark/README.md: kv_write went "out of memory" on
	// 4 MiB trunks at 100k keys, so the scored workload stops at 50k. A
	// default 4-machine cloud loads 100k cells of 64-512 bytes through
	// one access point, then takes 100k of kv_write's mutations (SET of a
	// fresh size or an 8-byte APPEND, evenly), with no error.
	c := New(Config{Machines: 4})
	defer c.Close()
	s := c.Slave(0)
	ctx := context.Background()
	rng := hash.NewRNG(7)
	const keys = 100_000
	size := func() int { return 64 + rng.Intn(512-64+1) }
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(ctx, k, val(size(), byte(k))); err != nil {
			t.Fatalf("preload key %d: %v", k, err)
		}
	}
	for i := 0; i < keys; i++ {
		k := uint64(rng.Intn(keys))
		var err error
		if rng.Intn(2) == 0 {
			err = s.Put(ctx, k, val(size(), byte(i)))
		} else {
			err = s.Append(ctx, k, val(8, byte(i)))
		}
		if err != nil {
			t.Fatalf("mutation %d (key %d): %v", i, k, err)
		}
	}
}

func TestLocalKeysAndForEach(t *testing.T) {
	c := newCloud(t, 3)
	s0 := c.Slave(0)
	const n = 120
	for i := uint64(0); i < n; i++ {
		s0.Put(context.Background(), i, val(8, byte(i)))
	}
	total := 0
	seen := map[uint64]bool{}
	for m := 0; m < 3; m++ {
		keys := c.Slave(m).LocalKeys()
		total += len(keys)
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("key %d stored on two machines", k)
			}
			seen[k] = true
		}
	}
	if total != n {
		t.Fatalf("LocalKeys total = %d, want %d", total, n)
	}
	count := 0
	c.Slave(1).ForEachLocal(func(k uint64, p []byte) bool {
		if p[0] != byte(k) {
			t.Errorf("key %d corrupt in ForEachLocal", k)
		}
		count++
		return true
	})
	if count != len(c.Slave(1).LocalKeys()) {
		t.Fatalf("ForEachLocal visited %d, want %d", count, len(c.Slave(1).LocalKeys()))
	}
	// Early stop.
	count = 0
	c.Slave(0).ForEachLocal(func(uint64, []byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("ForEachLocal early stop visited %d", count)
	}
}

func TestConcurrentClients(t *testing.T) {
	c := newCloud(t, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := c.Slave(w % 4)
			rng := hash.NewRNG(uint64(w))
			base := uint64(w) << 20
			for i := 0; i < 200; i++ {
				key := base + uint64(rng.Intn(50))
				switch rng.Intn(3) {
				case 0:
					if err := s.Put(context.Background(), key, val(16, byte(key))); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := s.Get(context.Background(), key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				case 2:
					if err := s.Remove(context.Background(), key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCloudModelProperty(t *testing.T) {
	// Property: a multi-machine cloud behaves like one map[uint64][]byte
	// regardless of which slave serves each operation.
	c := newCloud(t, 3)
	f := func(seed uint64) bool {
		model := map[uint64][]byte{}
		rng := hash.NewRNG(seed)
		base := seed << 24
		for i := 0; i < 150; i++ {
			s := c.Slave(rng.Intn(3))
			key := base + uint64(rng.Intn(40))
			switch rng.Intn(3) {
			case 0:
				v := val(rng.Intn(64), byte(rng.Next()))
				if s.Put(context.Background(), key, v) != nil {
					return false
				}
				model[key] = v
			case 1:
				got, err := s.Get(context.Background(), key)
				want, ok := model[key]
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(got, want) {
					return false
				}
			case 2:
				err := s.Remove(context.Background(), key)
				if _, ok := model[key]; ok != (err == nil) {
					return false
				}
				delete(model, key)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryUsageReflectsData(t *testing.T) {
	c := newCloud(t, 2)
	before := c.MemoryUsage()
	s := c.Slave(0)
	for i := uint64(0); i < 5000; i++ {
		s.Put(context.Background(), i, val(64, byte(i)))
	}
	after := c.MemoryUsage()
	if after <= before {
		t.Fatalf("memory usage did not grow: %d -> %d", before, after)
	}
}

func TestStatsRetriesOnStaleTable(t *testing.T) {
	c := newCloud(t, 4)
	s0 := c.Slave(0)
	for i := uint64(0); i < 100; i++ {
		s0.Put(context.Background(), i, val(8, byte(i)))
	}
	c.Backup()
	c.KillMachine(3)
	for i := uint64(0); i < 100; i++ {
		s0.Get(context.Background(), i)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatal("expected retries through the failure protocol")
	}
}

func ExampleCloud() {
	cloud := New(Config{Machines: 2})
	defer cloud.Close()
	s := cloud.Slave(0)
	s.Put(context.Background(), 42, []byte("a cell in the memory cloud"))
	v, _ := s.Get(context.Background(), 42)
	fmt.Println(string(v))
	// Output: a cell in the memory cloud
}

func BenchmarkCloudPutLocal(b *testing.B) {
	c := New(testConfig(1))
	defer c.Close()
	s := c.Slave(0)
	v := val(64, 1)
	const keys = 50_000 // bounded so any b.N fits in the trunks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(context.Background(), uint64(i%keys), v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloudGetLocal(b *testing.B) {
	c := New(testConfig(1))
	defer c.Close()
	s := c.Slave(0)
	v := val(64, 1)
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		s.Put(context.Background(), i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(context.Background(), uint64(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCloudGetDistributed(b *testing.B) {
	c := New(testConfig(4))
	defer c.Close()
	s := c.Slave(0)
	v := val(64, 1)
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		s.Put(context.Background(), i, v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(context.Background(), uint64(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}
