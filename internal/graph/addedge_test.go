package graph

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// idsOwnedBy returns the first n node ids the addressing table places on
// machine id.
func idsOwnedBy(s *memcloud.Slave, id msg.MachineID, n int) []uint64 {
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if s.Owner(k) == id {
			out = append(out, k)
		}
	}
	return out
}

// TestAddEdgeLocalAllocatesNothing pins the owner-side cost of an edge: with
// both endpoints on the calling machine, AddEdge is two in-place list
// appends and makes no allocation, however large the node grows.
func TestAddEdgeLocalAllocatesNothing(t *testing.T) {
	cloud := newCloud(t, 4)
	g := New(cloud, true)
	m := g.On(2)
	ctx := context.Background()
	ids := idsOwnedBy(m.Slave(), m.Slave().ID(), 2)
	hub, other := ids[0], ids[1]
	for _, id := range ids {
		if err := m.PutNode(ctx, &Node{ID: id, Name: "n"}); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 2000
	if got := testing.AllocsPerRun(runs, func() {
		if err := m.AddEdge(ctx, hub, other); err != nil {
			t.Fatal(err)
		}
		if err := m.AddEdge(ctx, other, hub); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("local AddEdge: %.2f allocations per pair of edges, want 0", got)
	}
	n, err := m.GetNode(ctx, hub)
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun adds one warm-up run.
	if len(n.Outlinks) != runs+1 || len(n.Inlinks) != runs+1 || n.Name != "n" {
		t.Fatalf("hub after %d pairs: %d out, %d in, name %q", runs+1, len(n.Outlinks), len(n.Inlinks), n.Name)
	}
}

// TestAddEdgeHubRecoversFromLog appends in- and out-links to one hub
// node from many goroutines and every machine under buffered logging,
// with a backup racing the appends, then kills the hub's machine. The
// recovered adjacency of every node must equal the model: each in-link
// append shifts the out-link list, so an out-link record logged out of
// apply order would replay at a stale offset.
func TestAddEdgeHubRecoversFromLog(t *testing.T) {
	c := memcloud.New(memcloud.Config{Machines: 3, BufferedLogging: true,
		Msg: msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second}})
	t.Cleanup(c.Close)
	g := New(c, true)
	ctx := context.Background()
	const victim = 2
	hub := idsOwnedBy(c.Slave(0), victim, 1)[0]
	const leaves = 40
	nodes := []uint64{hub}
	for k := uint64(1000); len(nodes) <= leaves; k++ {
		nodes = append(nodes, k)
	}
	for _, id := range nodes {
		if err := g.On(0).PutNode(ctx, &Node{ID: id, Label: int64(id)}); err != nil {
			t.Fatal(err)
		}
	}

	const workers, perWorker = 6, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := g.On(w % g.Machines())
			for i := 0; i < perWorker; i++ {
				leaf := nodes[1+(w*perWorker+i)%leaves]
				src, dst := hub, leaf
				if i%2 == 1 {
					src, dst = leaf, hub
				}
				if err := m.AddEdge(ctx, src, dst); err != nil {
					t.Errorf("AddEdge(%d, %d): %v", src, dst, err)
					return
				}
				if w == 0 && i == perWorker/2 {
					if err := c.Backup(); err != nil {
						t.Errorf("backup: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The model, rebuilt from the same deterministic edge schedule.
	out := map[uint64][]uint64{}
	in := map[uint64][]uint64{}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			leaf := nodes[1+(w*perWorker+i)%leaves]
			src, dst := hub, leaf
			if i%2 == 1 {
				src, dst = leaf, hub
			}
			out[src] = append(out[src], dst)
			in[dst] = append(in[dst], src)
		}
	}

	c.KillMachine(victim)
	m := g.On(0)
	sorted := func(s []uint64) []uint64 {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	for _, id := range nodes {
		n, err := m.GetNode(ctx, id)
		if err != nil {
			t.Fatalf("node %d after recovery: %v", id, err)
		}
		if n.Label != int64(id) {
			t.Errorf("node %d: label %d", id, n.Label)
		}
		if got, want := sorted(n.Outlinks), sorted(out[id]); !slices.Equal(got, want) {
			t.Errorf("node %d out-links: %d recovered, %d in the model", id, len(got), len(want))
		}
		if got, want := sorted(n.Inlinks), sorted(in[id]); !slices.Equal(got, want) {
			t.Errorf("node %d in-links: %d recovered, %d in the model", id, len(got), len(want))
		}
	}
	if c.Stats().Recoveries == 0 {
		t.Fatal("no trunk was recovered")
	}
}

// TestEdgeLog pins the edge log the partition views patch from: one entry
// per epoch step in append order, emptied by a structural change and by
// overflow, and Settled false while an append is between its trunk write
// and its log entry.
func TestEdgeLog(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, true)
	m := g.On(0)
	ctx := context.Background()
	ids := idsOwnedBy(m.Slave(), m.Slave().ID(), 2)
	a, b := ids[0], ids[1]
	for _, id := range ids {
		if err := m.AddNode(ctx, &Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}
	base, _ := m.Epochs()
	for _, e := range [][2]uint64{{a, b}, {b, a}, {a, a}} {
		if err := m.AddEdge(ctx, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := []EdgeAppend{{a, b, false}, {b, a, true}, {b, a, false}, {a, b, true}, {a, a, false}, {a, a, true}}
	got, ok := m.EdgesSince(base)
	if !ok || !slices.Equal(got, want) {
		t.Fatalf("EdgesSince(base) = %v, %v; want %v", got, ok, want)
	}
	if epoch, _ := m.Epochs(); epoch != base+uint64(len(want)) {
		t.Fatalf("epoch moved %d steps for %d appends", epoch-base, len(want))
	}
	if got, ok := m.EdgesSince(base + 4); !ok || !slices.Equal(got, want[4:]) {
		t.Fatalf("EdgesSince(base+4) = %v, %v", got, ok)
	}
	if _, ok := m.EdgesSince(base - 1); ok {
		t.Fatal("the log claims to cover the AddNode before it")
	}

	epoch, _ := m.Epochs()
	if !m.Settled(epoch) || m.Settled(epoch-1) {
		t.Fatal("Settled wrong on a quiet machine")
	}
	m.appending.Add(1) // an append between its trunk write and its log entry
	if m.Settled(epoch) {
		t.Fatal("Settled with an append in flight")
	}
	m.logAppend(a, b, false, nil)
	if !m.Settled(epoch + 1) {
		t.Fatal("not Settled after the append's log entry")
	}

	m.InvalidatePartition()
	epoch, _ = m.Epochs()
	if _, ok := m.EdgesSince(base); ok {
		t.Fatal("the log survived InvalidatePartition")
	}
	if got, ok := m.EdgesSince(epoch); !ok || len(got) != 0 {
		t.Fatalf("EdgesSince(now) after InvalidatePartition = %v, %v", got, ok)
	}
	for i := 0; i < edgeLogCap; i++ {
		m.appending.Add(1)
		m.logAppend(a, b, false, nil)
	}
	if _, ok := m.EdgesSince(epoch); !ok {
		t.Fatal("a full log does not cover its own span")
	}
	m.appending.Add(1)
	m.logAppend(a, b, false, nil)
	if _, ok := m.EdgesSince(epoch); ok {
		t.Fatal("an overflowing log still covers its old span")
	}
}
