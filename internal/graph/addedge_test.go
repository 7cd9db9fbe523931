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
