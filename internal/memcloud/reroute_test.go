package memcloud_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
)

// TestRerouteWaitsForTrunkInstall: the table names a key's owner, but
// that owner is still installing the key's trunk, which arrives ≈20 ms
// later. Whether the owner is the reading machine itself or a peer, a
// Get, a pipelined read and a pipelined write all wait for the install
// at the owner instead of spending every re-route at once on
// wrong-owner disclaimers.
func TestRerouteWaitsForTrunkInstall(t *testing.T) {
	c := memcloud.New(memcloud.Config{
		Machines: 2,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: time.Second},
	})
	defer c.Close()
	s := c.Slave(0)
	ctx := context.Background()
	f := fetch.New(s, fetch.Options{Metrics: s.Metrics()})
	defer f.Close()
	w := store.New(s, store.Options{Metrics: s.Metrics()})
	defer w.Close()
	const delay = 20 * time.Millisecond

	for _, owner := range []*memcloud.Slave{s, c.Slave(1)} {
		var key uint64
		for s.Owner(key) != owner.ID() {
			key++
		}
		want := []byte("recovered")
		if err := s.Put(ctx, key, want); err != nil {
			t.Fatal(err)
		}

		memcloud.DelayTrunk(owner, key, delay)
		got, err := s.Get(ctx, key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("owner %d: Get during the install window = %q, %v", owner.ID(), got, err)
		}

		memcloud.DelayTrunk(owner, key, delay)
		f.GetBatch(ctx, []uint64{key}, func(_ int, _ uint64, v []byte, err error) {
			if err != nil || !bytes.Equal(v, want) {
				t.Errorf("owner %d: pipelined read during the install window = %q, %v", owner.ID(), v, err)
			}
		})

		memcloud.DelayTrunk(owner, key, delay)
		fut := w.PutAsync(key, []byte("rewritten"))
		w.Flush()
		if _, err := fut.Wait(ctx); err != nil {
			t.Errorf("owner %d: pipelined write during the install window: %v", owner.ID(), err)
		}
	}
}

// TestOwnerCatchesUpWithNewerTable: a committed table moves a trunk to a
// machine that has not applied that table yet (its broadcast is late).
// A read routed by the new table reaches it; it refreshes its own
// replica, which installs the trunk, and serves the read instead of
// disclaiming it until the reader's re-routes run out.
func TestOwnerCatchesUpWithNewerTable(t *testing.T) {
	c := memcloud.New(memcloud.Config{
		Machines: 3,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: time.Second},
	})
	defer c.Close()
	ctx := context.Background()
	s0, old, fresh := c.Slave(0), c.Slave(1), c.Slave(2)
	var key uint64
	for s0.Owner(key) != old.ID() {
		key++
	}
	want := []byte("moved")
	if err := s0.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}

	// Commit the move straight to the persistent replica, as a leader
	// does before its broadcast, and apply it on the old owner (which
	// backs the trunk up and drops it) and on the reader only.
	cur := s0.Table()
	nt, err := cur.ReassignSet(map[msg.MachineID]bool{old.ID(): true}, []msg.MachineID{fresh.ID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FS().CompareAndSwap("cluster/addressing-table", cur.Encode(), nt.Encode()); err != nil {
		t.Fatal(err)
	}
	old.RefreshTable(ctx)
	s0.RefreshTable(ctx)
	if fresh.Table().Version != cur.Version {
		t.Fatal("the new owner applied the table before the read")
	}

	got, err := s0.Get(ctx, key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get from the new owner = %q, %v", got, err)
	}
}
