package cluster

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"trinity/internal/hash"
	"trinity/internal/msg"
	"trinity/internal/tfs"
)

func ids(n int) []msg.MachineID {
	out := make([]msg.MachineID, n)
	for i := range out {
		out[i] = msg.MachineID(i)
	}
	return out
}

func TestNewTableRoundRobin(t *testing.T) {
	tab := NewTable(4, ids(3)) // 16 slots over 3 machines
	if len(tab.Slots) != 16 {
		t.Fatalf("slots = %d, want 16", len(tab.Slots))
	}
	counts := map[msg.MachineID]int{}
	for _, m := range tab.Slots {
		counts[m]++
	}
	for m, c := range counts {
		if c < 5 || c > 6 {
			t.Fatalf("machine %d owns %d trunks, want 5-6", m, c)
		}
	}
	if got := tab.Machine(0); got != 0 {
		t.Fatalf("Machine(0) = %d", got)
	}
}

func TestTableEncodeDecode(t *testing.T) {
	tab := NewTable(5, ids(7))
	tab.Version = 42
	dec, err := DecodeTable(tab.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Version != 42 || dec.P != 5 || len(dec.Slots) != 32 {
		t.Fatalf("decoded %+v", dec)
	}
	for i := range tab.Slots {
		if dec.Slots[i] != tab.Slots[i] {
			t.Fatalf("slot %d: %d != %d", i, dec.Slots[i], tab.Slots[i])
		}
	}
	if _, err := DecodeTable([]byte{1, 2, 3}); err == nil {
		t.Fatal("short decode should fail")
	}
	enc := tab.Encode()
	enc[8] = 2 // inconsistent p
	if _, err := DecodeTable(enc); err == nil {
		t.Fatal("inconsistent decode should fail")
	}
}

func TestTableEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		p := uint(rng.Intn(8))
		machines := ids(rng.Intn(15) + 1)
		tab := NewTable(p, machines)
		tab.Version = rng.Next()
		dec, err := DecodeTable(tab.Encode())
		if err != nil || dec.Version != tab.Version || dec.P != tab.P {
			return false
		}
		for i := range tab.Slots {
			if dec.Slots[i] != tab.Slots[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReassign(t *testing.T) {
	tab := NewTable(4, ids(4))
	owned := tab.TrunksOf(2)
	nt, err := tab.ReassignSet(map[msg.MachineID]bool{2: true}, []msg.MachineID{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if nt.Version != tab.Version+1 {
		t.Fatalf("version = %d", nt.Version)
	}
	if len(nt.TrunksOf(2)) != 0 {
		t.Fatal("failed machine still owns trunks")
	}
	// Every reassigned trunk went to a survivor.
	for _, tr := range owned {
		owner := nt.Machine(tr)
		if owner == 2 {
			t.Fatalf("trunk %d still on failed machine", tr)
		}
	}
	// Diff picks up exactly the acquisitions.
	total := 0
	for _, s := range []msg.MachineID{0, 1, 3} {
		total += len(Diff(tab, nt, s))
	}
	if total != len(owned) {
		t.Fatalf("Diff total = %d, want %d", total, len(owned))
	}
	if _, err := tab.ReassignSet(map[msg.MachineID]bool{2: true}, nil); err == nil {
		t.Fatal("ReassignSet with no survivors should fail")
	}
}

// testCluster spins up n members over an in-process bus and shared TFS.
type testCluster struct {
	bus     *msg.Bus
	fs      *tfs.FS
	nodes   []*msg.Node
	members []*Member
}

func newTestCluster(t *testing.T, n int, p uint, hooks func(i int) RecoveryHooks) *testCluster {
	t.Helper()
	tc := &testCluster{bus: msg.NewBus(), fs: tfs.New(tfs.Options{Datanodes: 3})}
	initial := NewTable(p, ids(n))
	cfg := Config{HeartbeatInterval: 10 * time.Millisecond}
	for i := 0; i < n; i++ {
		node := msg.NewNode(tc.bus.Endpoint(msg.MachineID(i)), msg.Options{
			FlushInterval: time.Millisecond,
			CallTimeout:   500 * time.Millisecond,
		})
		var h RecoveryHooks
		if hooks != nil {
			h = hooks(i)
		}
		m := NewMember(node, tc.fs, initial, h, cfg)
		tc.nodes = append(tc.nodes, node)
		tc.members = append(tc.members, m)
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
	return tc
}

func TestSingleLeaderElected(t *testing.T) {
	tc := newTestCluster(t, 4, 4, nil)
	leaders := 0
	for _, m := range tc.members {
		if m.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	// All members agree on who leads.
	want := tc.members[0].Leader()
	for i, m := range tc.members {
		if m.Leader() != want {
			t.Fatalf("member %d thinks leader is %d, others say %d", i, m.Leader(), want)
		}
	}
}

func TestFailureRecoveryReassignsTrunks(t *testing.T) {
	var mu sync.Mutex
	acquired := map[int][]uint32{}
	tc := newTestCluster(t, 4, 4, func(i int) RecoveryHooks {
		return RecoveryHooks{AcquireTrunks: func(trunks []uint32) {
			mu.Lock()
			acquired[i] = append(acquired[i], trunks...)
			mu.Unlock()
		}}
	})
	victim := msg.MachineID(3) // not the leader (lowest id wins bootstrap)
	if tc.members[victim].IsLeader() {
		t.Fatal("victim unexpectedly the leader")
	}
	victimTrunks := tc.members[0].Table().TrunksOf(victim)
	if len(victimTrunks) == 0 {
		t.Fatal("victim owns nothing")
	}
	// Crash the victim.
	tc.members[victim].Stop()
	tc.nodes[victim].Close()
	tc.bus.Disconnect(victim)

	// A survivor notices while accessing data and reports the failure.
	if err := tc.members[1].ReportFailure(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	// Leader must have rewritten and broadcast the table; the broadcast
	// is asynchronous, so wait for every survivor's replica.
	deadline := time.Now().Add(2 * time.Second)
	for {
		stale := 0
		for i := 0; i < 3; i++ {
			if len(tc.members[i].Table().TrunksOf(victim)) != 0 {
				stale++
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d survivors still map trunks to the dead machine", stale)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Recovery hooks fired for exactly the victim's trunks.
	mu.Lock()
	total := 0
	for _, ts := range acquired {
		total += len(ts)
	}
	mu.Unlock()
	if total != len(victimTrunks) {
		t.Fatalf("recovery hooks acquired %d trunks, want %d", total, len(victimTrunks))
	}
	// The persistent primary replica was updated before committing.
	payload, err := tc.fs.ReadFile("cluster/addressing-table")
	if err != nil {
		t.Fatal(err)
	}
	persisted, _ := DecodeTable(payload)
	if len(persisted.TrunksOf(victim)) != 0 {
		t.Fatal("persistent table replica not updated")
	}
}

func TestHeartbeatDetectsSilentFailure(t *testing.T) {
	tc := newTestCluster(t, 3, 3, nil)
	victim := msg.MachineID(2)
	tc.members[victim].Stop()
	tc.nodes[victim].Close()
	tc.bus.Disconnect(victim)
	// No explicit report: the leader's heartbeat monitor must notice.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(tc.members[0].Table().TrunksOf(victim)) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("silent failure never detected by heartbeat monitor")
}

func TestLeaderFailureTriggersElection(t *testing.T) {
	tc := newTestCluster(t, 3, 3, nil)
	oldLeader := tc.members[0].Leader()
	idx := int(oldLeader)
	tc.members[idx].Stop()
	tc.nodes[idx].Close()
	tc.bus.Disconnect(oldLeader)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		for i, m := range tc.members {
			if i != idx && m.IsLeader() {
				// New leader elected; the TFS flag must name it.
				flag, err := tc.fs.ReadFile("cluster/leader")
				if err != nil || len(flag) != 4 {
					t.Fatalf("leader flag unreadable: %v", err)
				}
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no new leader elected after leader crash")
}

func TestRefreshTableAfterMissedBroadcast(t *testing.T) {
	tc := newTestCluster(t, 3, 3, nil)
	leader := tc.members[int(tc.members[0].Leader())]
	// Manually commit a newer table without broadcasting to member 2 by
	// writing it to TFS only (simulating a lost broadcast).
	nt, _ := leader.Table().ReassignSet(map[msg.MachineID]bool{2: true}, []msg.MachineID{0, 1})
	tc.fs.WriteFile("cluster/addressing-table", nt.Encode())

	// Member 2's replica is stale until it refreshes.
	m2 := tc.members[2]
	if m2.Table().Version >= nt.Version {
		t.Skip("background path already applied the table")
	}
	// Refresh falls back to leader (whose replica is old) then TFS; force
	// the TFS path by asking a member whose replica is also stale.
	if err := m2.RefreshTable(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m2.Table().Version < nt.Version {
		t.Fatalf("replica still stale after refresh: v%d < v%d",
			m2.Table().Version, nt.Version)
	}
}
