package traversal

import (
	"context"
	"testing"
	"time"

	"trinity/internal/gen"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// TestKHopAfterFailover counts two-hop neighbourhoods on a power-law
// graph, kills a machine, and counts them again once the survivors have
// taken over all of its trunks. The survivors' partition views must then
// include those trunks, so every count equals its value before the kill:
// a view cached before the recovery would miss them.
func TestKHopAfterFailover(t *testing.T) {
	c := memcloud.New(memcloud.Config{Machines: 4, BufferedLogging: true,
		Msg: msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second}})
	t.Cleanup(c.Close)
	const nodes, queries = 2000, 50
	const victim = msg.MachineID(3)
	b := graph.NewBuilder(true)
	for id := uint64(0); id < nodes; id++ {
		b.AddNode(id, 0, "")
	}
	gen.PowerLaw(gen.PowerLawConfig{Nodes: nodes, AvgDegree: 5, Seed: 7}, b.AddEdge)
	ctx := context.Background()
	g, err := b.Load(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	e := New(g)
	start := func(q int) uint64 { return uint64(q * nodes / queries) }
	var want [queries]int
	for q := range want {
		if want[q], err = e.KHopNeighborhoodSize(ctx, 0, start(q), 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Backup(); err != nil {
		t.Fatal(err)
	}
	lost := int64(len(c.Slave(int(victim)).LocalTrunkIDs()))
	c.KillMachine(victim)

	// KHOP fails while the victim is suspected; it answers once the
	// table has moved the victim's trunks and they are loaded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := e.KHopNeighborhoodSize(ctx, 0, start(0), 2)
		if err == nil && c.Stats().Recoveries >= lost {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("KHOP after the kill: %v, %d of %d trunks recovered", err, c.Stats().Recoveries, lost)
		}
		time.Sleep(10 * time.Millisecond)
	}
	wrong := 0
	for q := range want {
		got, err := e.KHopNeighborhoodSize(ctx, 0, start(q), 2)
		if err != nil {
			t.Fatalf("KHOP from %d after recovery: %v", start(q), err)
		}
		if got != want[q] {
			wrong++
			t.Logf("KHOP from %d: %d after recovery, %d before", start(q), got, want[q])
		}
	}
	if wrong > 0 {
		t.Fatalf("%d of %d two-hop counts changed across the failover", wrong, queries)
	}
}
