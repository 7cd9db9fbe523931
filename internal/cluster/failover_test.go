package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"trinity/internal/msg"
	"trinity/internal/tfs"
)

// killMember simulates the crash of member i in a testCluster.
func (tc *testCluster) killMember(i int) {
	tc.members[i].Stop()
	tc.nodes[i].Close()
	tc.bus.Disconnect(msg.MachineID(i))
}

// leaderIndex returns the index of the current leader, or -1.
func (tc *testCluster) leaderIndex() int {
	for i, m := range tc.members {
		if m.IsLeader() {
			return i
		}
	}
	return -1
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestConcurrentFailureRecoverySerialized kills two machines inside the
// same detector window and reports both failures concurrently. The
// recovery mutex must serialize the two reconfigurations: every trunk
// ends on a survivor, the version chain has no gaps (each commit
// increments by exactly one), and the persistent replica matches the
// leader's.
func TestConcurrentFailureRecoverySerialized(t *testing.T) {
	tc := newTestCluster(t, 5, 4, nil)
	leader := tc.leaderIndex()
	if leader == -1 {
		t.Fatal("no leader")
	}
	initial := tc.members[leader].Table().Version

	// Two victims, neither the leader nor the reporter.
	var victims []msg.MachineID
	for i := range tc.members {
		if i != leader && len(victims) < 2 {
			victims = append(victims, msg.MachineID(i))
		}
	}
	var reporter *Member
	for i, m := range tc.members {
		if i != leader && msg.MachineID(i) != victims[0] && msg.MachineID(i) != victims[1] {
			reporter = m
			break
		}
	}
	for _, v := range victims {
		tc.killMember(int(v))
	}

	var wg sync.WaitGroup
	for _, v := range victims {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := reporter.ReportFailure(context.Background(), v); err != nil {
				t.Errorf("report %d: %v", v, err)
			}
		}()
	}
	wg.Wait()

	lm := tc.members[leader]
	nt := lm.Table()
	for _, v := range victims {
		if n := len(nt.TrunksOf(v)); n != 0 {
			t.Fatalf("dead machine %d still owns %d trunks", v, n)
		}
	}
	// Each commit bumps the version by exactly one; two concurrent
	// reports produce one or two commits (the second may find the first
	// already moved everything), never zero and never a gap.
	commits := lm.recoveries.Load()
	if commits < 1 || commits > 2 {
		t.Fatalf("recoveries = %d, want 1 or 2", commits)
	}
	if nt.Version != initial+uint64(commits) {
		t.Fatalf("version chain has gaps: v%d after %d commits from v%d",
			nt.Version, commits, initial)
	}
	// Persist-before-broadcast: the TFS primary replica is the leader's.
	payload, err := tc.fs.ReadFile(tableFile)
	if err != nil {
		t.Fatal(err)
	}
	persisted, err := DecodeTable(payload)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.Version != nt.Version {
		t.Fatalf("persistent replica v%d != leader replica v%d",
			persisted.Version, nt.Version)
	}
}

// TestStaleLeaderCannotClobberNewerTable simulates a deposed leader whose
// commit races a newer one: another writer commits v2 directly to TFS,
// then the leader (whose in-memory replica is still v1) recovers a
// failure. Its CAS on the v1 predecessor must lose, adopt v2, re-diff,
// and commit v3 — never overwrite v2 with a second v2.
func TestStaleLeaderCannotClobberNewerTable(t *testing.T) {
	tc := newTestCluster(t, 4, 4, nil)
	leader := tc.leaderIndex()
	if leader == -1 {
		t.Fatal("no leader")
	}
	lm := tc.members[leader]
	v1 := lm.Table()

	// Another writer (a competing leader the flag has since deposed)
	// commits v2: machine A's trunks move away.
	victimA := msg.MachineID((leader + 1) % 4)
	var survivorsA []msg.MachineID
	for _, id := range v1.Machines() {
		if id != victimA {
			survivorsA = append(survivorsA, id)
		}
	}
	v2, err := v1.ReassignSet(map[msg.MachineID]bool{victimA: true}, survivorsA)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.fs.CompareAndSwap(tableFile, v1.Encode(), v2.Encode()); err != nil {
		t.Fatal(err)
	}

	// The leader, still on v1, now recovers machine B.
	victimB := msg.MachineID((leader + 2) % 4)
	tc.killMember(int(victimA))
	tc.killMember(int(victimB))
	if err := lm.ReportFailure(context.Background(), victimB); err != nil {
		t.Fatal(err)
	}

	if got := lm.tableCASRetries.Load(); got < 1 {
		t.Fatalf("table_cas_retries = %d, want >= 1 (stale predecessor must lose)", got)
	}
	nt := lm.Table()
	if nt.Version != v2.Version+1 {
		t.Fatalf("leader table v%d, want v%d (adopt v2, commit v3)", nt.Version, v2.Version+1)
	}
	if n := len(nt.TrunksOf(victimB)); n != 0 {
		t.Fatalf("victim B still owns %d trunks", n)
	}
	// v2's reassignment of A must survive the race.
	if n := len(nt.TrunksOf(victimA)); n != 0 {
		t.Fatalf("v2's reassignment clobbered: victim A owns %d trunks again", n)
	}
	payload, err := tc.fs.ReadFile(tableFile)
	if err != nil {
		t.Fatal(err)
	}
	persisted, _ := DecodeTable(payload)
	if persisted.Version != nt.Version {
		t.Fatalf("persistent v%d != leader v%d", persisted.Version, nt.Version)
	}
}

// TestStepDownReleasesFlagForSuccessor: a leader that steps down leaves
// the tombstoned flag claimable, and some member (possibly the deposed
// one, once healthy) reassumes leadership and re-seeds its failure
// detector — no machine is falsely recovered after the hand-off.
func TestStepDownReleasesFlagForSuccessor(t *testing.T) {
	tc := newTestCluster(t, 3, 3, nil)
	leader := tc.leaderIndex()
	if leader == -1 {
		t.Fatal("no leader")
	}
	lm := tc.members[leader]
	before := lm.Table().Version

	lm.stepDown()
	if lm.IsLeader() {
		t.Fatal("still leader after stepDown")
	}
	if got := lm.stepdowns.Load(); got != 1 {
		t.Fatalf("stepdowns = %d, want 1", got)
	}
	flag, err := tc.fs.ReadFile(leaderFlagFile)
	if err != nil || len(flag) != 4 {
		t.Fatalf("flag unreadable after stepdown: %v", err)
	}
	if id := decodeID(flag); id != leaderTombstone {
		t.Fatalf("flag = %d, want tombstone", id)
	}

	// Heartbeat loops race for the tombstone; exactly one member wins.
	waitFor(t, 3*time.Second, "successor election", func() bool {
		return tc.leaderIndex() != -1
	})
	leaders := 0
	for _, m := range tc.members {
		if m.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders after hand-off, want 1", leaders)
	}

	// All machines are alive: a detector seeded with stale lastSeen
	// times would instantly expire them and run spurious recoveries.
	time.Sleep(4 * tc.members[0].cfg.FailureTimeout)
	for i, m := range tc.members {
		if got := m.recoveries.Load(); got != 0 {
			t.Fatalf("member %d ran %d spurious recoveries after hand-off", i, got)
		}
		if v := m.Table().Version; v != before {
			t.Fatalf("member %d table moved to v%d with no failures", i, v)
		}
	}
}

// TestReportFailureFallbackFindsSuccessorLeader: the reporter's leader
// belief points at a dead machine, another member has already claimed the
// flag, and the reporter's own election loses. The retry must re-read the
// flag from TFS (not re-call the dead leader) and land on the successor.
func TestReportFailureFallbackFindsSuccessorLeader(t *testing.T) {
	tc := newTestCluster(t, 4, 4, nil)
	leader := tc.leaderIndex()
	if leader == -1 {
		t.Fatal("no leader")
	}
	// Pick the successor and reporter among the other members; the
	// remaining machine is the data victim whose failure gets reported.
	var others []int
	for i := range tc.members {
		if i != leader {
			others = append(others, i)
		}
	}
	successor, reporter, victim := others[0], others[1], others[2]

	tc.killMember(leader)
	tc.killMember(victim)

	// The successor claims the flag before the reporter notices anything.
	tc.members[successor].tryBecomeLeader(encodeID(msg.MachineID(leader)))
	if !tc.members[successor].IsLeader() {
		t.Fatal("successor could not claim the flag")
	}

	// The reporter still believes the dead leader leads.
	if tc.members[reporter].Leader() != msg.MachineID(leader) {
		t.Skip("reporter already learned of the new leader")
	}
	if err := tc.members[reporter].ReportFailure(context.Background(), msg.MachineID(victim)); err != nil {
		t.Fatalf("report via successor failed: %v", err)
	}
	nt := tc.members[successor].Table()
	if n := len(nt.TrunksOf(msg.MachineID(victim))); n != 0 {
		t.Fatalf("victim still owns %d trunks after fallback report", n)
	}
	if tc.members[reporter].Leader() != msg.MachineID(successor) {
		t.Fatalf("reporter's leader belief = %d, want %d",
			tc.members[reporter].Leader(), successor)
	}
}

// TestConfirmPingBoundedByFailureTimeout: the detector's confirm pings
// must not inherit the node's full CallTimeout. With a FailureTimeout far
// below CallTimeout, recovery of a silent machine must complete in
// FailureTimeout-scale time, not CallTimeout-scale.
func TestConfirmPingBoundedByFailureTimeout(t *testing.T) {
	tc := &testCluster{bus: msg.NewBus(), fs: tfs.New(tfs.Options{Datanodes: 3})}
	initial := NewTable(4, ids(3))
	cfg := Config{HeartbeatInterval: 10 * time.Millisecond, FailureTimeout: 50 * time.Millisecond}
	for i := 0; i < 3; i++ {
		node := msg.NewNode(tc.bus.Endpoint(msg.MachineID(i)), msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   30 * time.Second, // pathological: detector must not wait this out
		})
		tc.nodes = append(tc.nodes, node)
		tc.members = append(tc.members, NewMember(node, tc.fs, initial, RecoveryHooks{}, cfg))
	}
	for _, m := range tc.members {
		m.Start()
	}
	t.Cleanup(func() {
		for _, m := range tc.members {
			m.Stop()
		}
		for _, n := range tc.nodes {
			n.Close()
		}
	})
	leader := tc.leaderIndex()
	if leader == -1 {
		t.Fatal("no leader")
	}
	victim := (leader + 1) % 3
	start := time.Now()
	tc.killMember(victim)
	waitFor(t, 5*time.Second, "silent-failure recovery", func() bool {
		return len(tc.members[leader].Table().TrunksOf(msg.MachineID(victim))) == 0
	})
	// Detection needs one FailureTimeout expiry plus one bounded confirm
	// ping; anything over a few multiples means the ping ran on the
	// 30-second CallTimeout.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("recovery took %v; confirm ping not bounded by FailureTimeout", elapsed)
	}
}
