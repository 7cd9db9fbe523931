package memcloud

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"trinity/internal/cluster"
	"trinity/internal/msg"
)

// failoverConfig tunes a 4-machine cloud for kill tests driven by the
// background failure detector: fast heartbeats, a short failure timeout
// so both kills land in one detector window, a short call timeout so
// survivors notice dead owners in milliseconds, and buffered logging so
// acknowledged writes survive via WAL replay.
func failoverConfig() Config {
	cfg := testConfig(4)
	cfg.BufferedLogging = true
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	cfg.Cluster.HeartbeatInterval = 10 * time.Millisecond
	cfg.Cluster.FailureTimeout = 60 * time.Millisecond
	return cfg
}

// cloudLeader returns the current leader slave, or nil.
func cloudLeader(c *Cloud) *Slave {
	for i := 0; i < c.Slaves(); i++ {
		if s := c.Slave(i); s.alive.Load() && s.member.IsLeader() {
			return s
		}
	}
	return nil
}

// deadOwnedTrunks counts trunks the table assigns to any machine in dead.
func deadOwnedTrunks(t *cluster.Table, dead map[msg.MachineID]bool) int {
	n := 0
	for _, owner := range t.Slots {
		if dead[owner] {
			n++
		}
	}
	return n
}

// clusterCounter sums a cluster.m<id>.<name> counter across all machines.
func clusterCounter(c *Cloud, name string) int64 {
	var total int64
	for _, v := range c.Metrics().Snapshot() {
		if v.Kind == "counter" && strings.HasPrefix(v.Name, "cluster.m") &&
			strings.HasSuffix(v.Name, "."+name) {
			total += v.Int
		}
	}
	return total
}

// getEventually reads a key, retrying transient post-failover errors:
// the addressing table can commit before the new owner finishes loading
// the trunk from TFS, and the §6.2 protocol has clients retry until the
// acquisition lands.
func getEventually(t *testing.T, s *Slave, key uint64) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := s.Get(context.Background(), key)
		if err == nil {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d unreadable after failover: %v", key, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosFailoverDoubleKillConverges kills 2 of 4 machines inside one
// detector window. The serialized control plane must converge: no trunk
// remains assigned to a dead machine, the table version chain has no gaps
// (persisted version == in-memory version == initial + committed
// recoveries), and every acknowledged pre-kill Put — including WAL-only
// writes after the last backup — is readable after failover.
func TestChaosFailoverDoubleKillConverges(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, _ := NewChaosCloud(failoverConfig(), seed)
			defer c.Close()
			ctx := context.Background()

			leader := cloudLeader(c)
			if leader == nil {
				t.Fatal("no leader")
			}
			// Victims: two non-leaders. Access point: the remaining slave.
			var victims []msg.MachineID
			var access *Slave
			for i := 0; i < c.Slaves(); i++ {
				s := c.Slave(i)
				if s == leader {
					continue
				}
				if len(victims) < 2 {
					victims = append(victims, s.ID())
				} else {
					access = s
				}
			}
			dead := map[msg.MachineID]bool{victims[0]: true, victims[1]: true}

			// Phase 1: acknowledged writes covered by a trunk backup.
			const backed, walOnly = 200, 100
			for k := uint64(0); k < backed; k++ {
				if err := access.Put(ctx, k, val(32, byte(k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Backup(); err != nil {
				t.Fatal(err)
			}
			// Phase 2: acknowledged writes that exist only in the WAL.
			for k := uint64(backed); k < backed+walOnly; k++ {
				if err := access.Put(ctx, k, val(32, byte(k))); err != nil {
					t.Fatal(err)
				}
			}
			initial := leader.member.Table().Version

			// Both kills inside one detector window.
			c.KillMachine(victims[0])
			c.KillMachine(victims[1])

			// The background detector must notice, confirm concurrently,
			// and commit serialized recoveries.
			deadline := time.Now().Add(5 * time.Second)
			for deadOwnedTrunks(leader.member.Table(), dead) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d trunks still assigned to dead machines",
						deadOwnedTrunks(leader.member.Table(), dead))
				}
				time.Sleep(5 * time.Millisecond)
			}

			// Every acknowledged Put survives via dump + WAL replay.
			for k := uint64(0); k < backed+walOnly; k++ {
				if got := getEventually(t, access, k); !bytes.Equal(got, val(32, byte(k))) {
					t.Fatalf("key %d corrupt after double failover", k)
				}
			}

			// Version chain: each commit bumps by exactly one; the CAS
			// protocol forbids skips and out-of-order overwrites.
			final := leader.member.Table().Version
			commits := c.Metrics().Scope(fmt.Sprintf("cluster.m%d", leader.ID())).Counter("recoveries").Load()
			if commits < 1 || commits > 2 {
				t.Fatalf("recoveries = %d, want 1 or 2", commits)
			}
			if final != initial+uint64(commits) {
				t.Fatalf("version chain broken: v%d -> v%d over %d commits (cas_retries=%d)",
					initial, final, commits, clusterCounter(c, "table_cas_retries"))
			}
			// Persist-before-broadcast: TFS primary replica is current.
			payload, err := c.FS().ReadFile("cluster/addressing-table")
			if err != nil {
				t.Fatal(err)
			}
			persisted, err := cluster.DecodeTable(payload)
			if err != nil {
				t.Fatal(err)
			}
			if persisted.Version != final {
				t.Fatalf("persistent replica v%d != leader v%d", persisted.Version, final)
			}
			if deadOwnedTrunks(persisted, dead) != 0 {
				t.Fatal("persistent replica still assigns trunks to dead machines")
			}

			// Measured failover latency (suspicion -> committed table),
			// cited in EXPERIMENTS.md.
			for _, v := range c.Metrics().Snapshot() {
				if strings.HasSuffix(v.Name, ".failover_ns") && v.Hist.Count > 0 {
					t.Logf("%s: n=%d mean=%.1fms max=%.1fms", v.Name, v.Hist.Count,
						float64(v.Hist.Sum)/float64(v.Hist.Count)/1e6,
						float64(v.Hist.Max)/1e6)
				}
			}
		})
	}
}

// TestChaosFailoverLeaderIsolatedMidCommit crashes the leader in the §6.2
// danger window: the commit hook isolates it right after the new table
// reaches the persistent replica but before the broadcast, so the commit
// is durable yet no survivor heard about it. A successor must claim the
// flag, adopt the persisted (newer) table, and finish the recovery; the
// deposed leader — still able to reach TFS — must step down instead of
// clobbering the successor's commit chain.
func TestChaosFailoverLeaderIsolatedMidCommit(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c, ch := NewChaosCloud(failoverConfig(), seed)
			defer c.Close()
			ctx := context.Background()

			leader := cloudLeader(c)
			if leader == nil {
				t.Fatal("no leader")
			}
			var victim, access *Slave
			for i := 0; i < c.Slaves(); i++ {
				s := c.Slave(i)
				if s == leader {
					continue
				}
				if victim == nil {
					victim = s
				} else if access == nil {
					access = s
				}
			}

			const keys = 200
			for k := uint64(0); k < keys; k++ {
				if err := access.Put(ctx, k, val(24, byte(k))); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Backup(); err != nil {
				t.Fatal(err)
			}
			// WAL-only tail.
			for k := uint64(keys); k < keys+50; k++ {
				if err := access.Put(ctx, k, val(24, byte(k))); err != nil {
					t.Fatal(err)
				}
			}

			// The moment the victim's recovery table hits TFS, the leader
			// drops off the network — before it can broadcast or reply.
			var once sync.Once
			leaderID := leader.ID()
			leader.member.SetCommitHook(func(*cluster.Table) {
				once.Do(func() { ch.Isolate(leaderID) })
			})

			c.KillMachine(victim.ID())

			// Survivors must converge on a table that assigns every trunk
			// to a live, reachable machine (neither the victim nor the
			// isolated ex-leader).
			dead := map[msg.MachineID]bool{victim.ID(): true, leaderID: true}
			deadline := time.Now().Add(10 * time.Second)
			for deadOwnedTrunks(access.member.Table(), dead) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d trunks still on dead/isolated machines",
						deadOwnedTrunks(access.member.Table(), dead))
				}
				time.Sleep(5 * time.Millisecond)
			}

			// A successor leads; the deposed leader knows it is not it.
			// Poll: leadership may be mid-hand-off at any single instant.
			var successor *Slave
			for time.Now().Before(deadline) {
				if s := cloudLeader(c); s != nil && s.ID() != leaderID {
					successor = s
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if successor == nil {
				t.Fatal("no successor leader emerged")
			}
			if leader.member.IsLeader() {
				t.Fatal("isolated ex-leader still believes it leads")
			}
			if got := clusterCounter(c, "stepdowns"); got < 1 {
				t.Fatalf("stepdowns = %d, want >= 1 (deposed leader must step down)", got)
			}

			// Every acknowledged write — including those owned by the
			// victim and the ex-leader — is readable from the survivors.
			for k := uint64(0); k < keys+50; k++ {
				if got := getEventually(t, access, k); !bytes.Equal(got, val(24, byte(k))) {
					t.Fatalf("key %d corrupt after mid-commit crash", k)
				}
			}

			// The persistent replica is the successor's latest table; the
			// mid-commit version was adopted, not skipped or rewritten.
			payload, err := c.FS().ReadFile("cluster/addressing-table")
			if err != nil {
				t.Fatal(err)
			}
			persisted, err := cluster.DecodeTable(payload)
			if err != nil {
				t.Fatal(err)
			}
			if sv := successor.member.Table().Version; persisted.Version != sv {
				t.Fatalf("persistent v%d != successor v%d", persisted.Version, sv)
			}
			if deadOwnedTrunks(persisted, dead) != 0 {
				t.Fatal("persistent replica still assigns trunks to dead/isolated machines")
			}
			c.KillMachine(leaderID) // full crash of the isolated ex-leader
		})
	}
}
