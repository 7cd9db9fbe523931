package memcloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trinity/internal/msg"
)

// chaosConfig is testConfig with timeouts tuned for fault injection: a
// short call timeout so unreachable owners are detected in milliseconds,
// and a failure timeout high enough that only the explicit §6.2
// failure-report path (not the background heartbeat monitor) drives
// recovery — keeping the schedule deterministic.
func chaosConfig(machines int) Config {
	cfg := testConfig(machines)
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	cfg.Cluster.FailureTimeout = time.Minute
	return cfg
}

// TestChaosWithOwnerRetryRecoversIsolatedOwner drives the full §6.2
// protocol with a real fault: the owner of a key is partitioned away, a
// Get from another machine times out, reports the failure, waits for the
// addressing table to change, and retries against the trunk's new home —
// which serves the value recovered from the TFS backup.
func TestChaosWithOwnerRetryRecoversIsolatedOwner(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, ch := NewChaosCloud(chaosConfig(3), seed)
			defer c.Close()
			s0 := c.Slave(0)

			// A key owned by machine 2 (neither the access point nor the
			// likely leader).
			var key uint64
			for k := uint64(0); ; k++ {
				if s0.Owner(k) == 2 {
					key = k
					break
				}
			}
			want := val(64, 9)
			if err := s0.Put(context.Background(), key, want); err != nil {
				t.Fatal(err)
			}
			if err := c.Backup(); err != nil {
				t.Fatal(err)
			}

			before := c.Stats().Retries
			ch.Isolate(2)
			got, err := s0.Get(context.Background(), key)
			if err != nil {
				t.Fatalf("get after isolating the owner: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("recovered value corrupt")
			}
			if c.Stats().Retries <= before {
				t.Fatal("recovery did not go through the retry path")
			}
			if owner := s0.Owner(key); owner == 2 {
				t.Fatal("table still names the isolated machine as owner")
			}
		})
	}
}

// TestChaosStaleTableWrongOwnerBounce: a live machine lost its trunks to a
// table update (the way a falsely suspected machine does), and a machine
// that missed that update's broadcast (its link from the leader is cut)
// sends a request to the old owner. The old owner answers ErrWrongOwner —
// as a wire code, not message text — and the stale machine refreshes its
// table from TFS and retries against the new owner.
func TestChaosStaleTableWrongOwnerBounce(t *testing.T) {
	c, ch := NewChaosCloud(chaosConfig(4), 1)
	defer c.Close()
	ctx := context.Background()
	s0 := c.Slave(0)

	lead := cloudLeader(c)
	if lead == nil {
		t.Fatal("no leader")
	}
	leader := lead.ID()
	victim := msg.MachineID((int(leader) + 1) % 4)
	// Neither the old nor the new owner may be the leader: the victim
	// cannot hear the leader at all, so a call to it would escalate into a
	// failure report instead of a clean wrong-owner bounce.
	old := c.Slave((int(leader) + 2) % 4)
	fresh := c.Slave((int(leader) + 3) % 4)

	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := s0.Put(ctx, k, val(16, byte(k))); err != nil {
			t.Fatal(err)
		}
	}

	// The victim stops hearing from the leader, then every trunk of the
	// old owner moves to the fresh one: committed to the persistent replica,
	// applied by the old owner (which dumps and drops the trunks) and then
	// by the new one (which loads them). The victim's replica stays stale.
	ch.Cut(leader, victim)
	cur := old.member.Table()
	nt, err := cur.ReassignSet(map[msg.MachineID]bool{old.ID(): true}, []msg.MachineID{fresh.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS().CompareAndSwap("cluster/addressing-table", cur.Encode(), nt.Encode()); err != nil {
		t.Fatal(err)
	}
	old.RefreshTable(ctx)
	fresh.RefreshTable(ctx)

	sv := c.Slave(int(victim))
	var key uint64
	found := false
	for k := uint64(0); k < n && !found; k++ {
		key, found = k, sv.Owner(k) == old.ID()
	}
	if !found {
		t.Fatal("no key on the old owner")
	}

	before := c.Stats().Retries
	got, err := sv.Get(ctx, key)
	if err != nil {
		t.Fatalf("get with stale table: %v", err)
	}
	if !bytes.Equal(got, val(16, byte(key))) {
		t.Fatal("value corrupt after wrong-owner bounce")
	}
	if c.Stats().Retries <= before {
		t.Fatal("stale table did not bounce through the retry path")
	}
	if got := sv.Owner(key); got != fresh.ID() {
		t.Fatalf("victim's table replica not refreshed after the bounce: owner(key=%d)=%d, new owner=%d, victim=%d, version=%d vs %d",
			key, got, fresh.ID(), victim, sv.member.Table().Version, nt.Version)
	}
}

// TestChaosRetriesExhausted: when the table keeps naming an owner that
// keeps disclaiming the trunk, Slave.do gives up with
// ErrRetriesExhausted after MaxRetries table refreshes.
func TestChaosRetriesExhausted(t *testing.T) {
	c, _ := NewChaosCloud(chaosConfig(2), 1)
	defer c.Close()
	s0, s1 := c.Slave(0), c.Slave(1)

	var key uint64
	for k := uint64(0); ; k++ {
		if s0.Owner(k) == s1.ID() {
			key = k
			break
		}
	}
	// Rip the trunk out of the owner: every request now draws the
	// wrong-owner disclaimer, and no table refresh will ever fix it.
	tid := s1.trunkFor(key)
	s1.mu.Lock()
	delete(s1.trunks, tid)
	s1.mu.Unlock()

	before := c.Stats().Retries
	_, err := s0.Get(context.Background(), key)
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", err)
	}
	if got := c.Stats().Retries - before; got < MaxRetries {
		t.Fatalf("retries = %d, want >= %d", got, MaxRetries)
	}
}

// TestChaosWALBackupInterleave is the regression for the backup/log
// truncation race: mutations racing a backup must end up in the dump or
// in the log — never in neither (lost on recovery) and never in both
// (Append replayed twice). The exact final length check catches both.
func TestChaosWALBackupInterleave(t *testing.T) {
	cfg := chaosConfig(2)
	cfg.BufferedLogging = true
	// Append rewrites the whole cell, so a long append stream needs
	// quadratic headroom.
	cfg.TrunkCapacity = 64 << 20
	c, _ := NewChaosCloud(cfg, 2)
	defer c.Close()
	s0, s1 := c.Slave(0), c.Slave(1)

	// Several keys local to machine 1 (the machine we will crash), all in
	// one trunk. Multiple independent append streams keep the backup's
	// dump-to-truncate window contended from every side — a single stream
	// can happen to sit out the window and mask the race.
	const appenders = 4
	var keys []uint64
	var tid uint32
	for k := uint64(0); len(keys) < appenders; k++ {
		if s0.Owner(k) != s1.ID() {
			continue
		}
		if len(keys) == 0 {
			tid = s1.trunkFor(k)
		} else if s1.trunkFor(k) != tid {
			continue
		}
		keys = append(keys, k)
		if err := s1.Put(context.Background(), k, val(8, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Fatten the trunk with sibling cells: the wider the dump, the wider
	// the window between the dump snapshot and the log truncation that a
	// racing mutation can fall into.
	filled := 0
	for k := keys[appenders-1] + 1; filled < 200; k++ {
		if s1.trunkFor(k) == tid && s0.Owner(k) == s1.ID() {
			if err := s1.Put(context.Background(), k, val(20480, byte(k))); err != nil {
				t.Fatal(err)
			}
			filled++
		}
	}

	// The appenders hammer their cells continuously while backups run
	// against the trunk. Each backup starts only after fresh appends landed
	// (so the streams are provably mid-flight), and the appenders are
	// stopped only after the LAST backup finished: a mutation racing that
	// backup must land in its dump or survive its log truncation — never
	// fall between the dump snapshot and the truncate. A trailing backup
	// would mask the race (its dump re-covers the trunk), so none runs
	// after the streams.
	tr := s1.localTrunk(tid)
	stop := make(chan struct{})
	var count atomic.Int64
	counts := make([]int, appenders)
	var wg sync.WaitGroup
	errs := make(chan error, appenders)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					counts[a] = i
					return
				default:
				}
				if err := s1.Append(context.Background(), keys[a], val(4, byte(i))); err != nil {
					errs <- err
					counts[a] = i
					return
				}
				i++
				count.Add(1)
			}
		}(a)
	}
	for round := 0; round < 3; round++ {
		base := count.Load()
		for count.Load() < base+50 {
			runtime.Gosched()
		}
		if err := s1.backupTrunk(tid, tr); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Crash the mutated machine; the survivor recovers the trunk from
	// the last dump plus the log tail. Every stream must recover to its
	// exact final length — shorter means a mutation fell into the backup
	// window, longer means a truncated record was replayed twice.
	c.KillMachine(s1.ID())
	for a := 0; a < appenders; a++ {
		got, err := s0.Get(context.Background(), keys[a])
		if err != nil {
			t.Fatalf("get stream %d after crash: %v", a, err)
		}
		want := 8 + 4*counts[a]
		if len(got) != want {
			t.Errorf("stream %d recovered to %d bytes, want %d (lost or double-replayed mutations)", a, len(got), want)
		}
	}
}

// TestChaosJitterDelayClusterStable: under contract-preserving jitter
// plus small transport delays (well below the failure timeout), the
// cluster must stay quiet — no spurious recoveries, no failed operations.
func TestChaosJitterDelayClusterStable(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, ch := NewChaosCloud(testConfig(3), seed)
			defer c.Close()
			ch.SetDefault(msg.Policy{
				Jitter:   100 * time.Microsecond,
				Delay:    0.2,
				MaxDelay: 2 * time.Millisecond,
			})
			s0 := c.Slave(0)
			const n = 150
			for k := uint64(0); k < n; k++ {
				if err := s0.Put(context.Background(), k, val(16, byte(k))); err != nil {
					t.Fatalf("put key %d: %v", k, err)
				}
			}
			for m := 0; m < c.Slaves(); m++ {
				s := c.Slave(m)
				for k := uint64(0); k < n; k += 7 {
					got, err := s.Get(context.Background(), k)
					if err != nil {
						t.Fatalf("machine %d key %d: %v", m, k, err)
					}
					if !bytes.Equal(got, val(16, byte(k))) {
						t.Fatalf("machine %d key %d: corrupt", m, k)
					}
				}
			}
			if rec := c.Stats().Recoveries; rec != 0 {
				t.Fatalf("spurious recoveries under benign chaos: %d", rec)
			}
		})
	}
}
