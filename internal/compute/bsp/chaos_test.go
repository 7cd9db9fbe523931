package bsp

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

// newChaosCloud boots a cloud behind a seeded chaos hub armed with
// contract-preserving faults only: delivery jitter (which exercises the
// message layer's per-sender ordering machinery) and poisoned receive
// buffers (which catch any handler retaining a transport-owned frame).
// A correct stack computes identical results to the clean one.
func newChaosCloud(t testing.TB, machines int, seed int64) *memcloud.Cloud {
	c, ch := memcloud.NewChaosCloud(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 5 * time.Second},
	}, seed)
	ch.SetDefault(msg.Policy{Jitter: 200 * time.Microsecond})
	ch.PoisonFrames(true)
	t.Cleanup(c.Close)
	return c
}

// TestChaosPageRankOnRing runs the canonical BSP program with every frame
// jittered and every delivered buffer scribbled after its callback. The
// superstep barriers and combiner traffic ride the async message path, so
// any ordering violation or retained frame skews the ranks away from the
// exact ring fixpoint.
func TestChaosPageRankOnRing(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cloud := newChaosCloud(t, 2, seed)
			g := ringGraph(t, cloud, 40)
			e := New(g, Options{})
			steps, err := e.Run(context.Background(), &pagerank{iters: 30})
			if err != nil {
				t.Fatal(err)
			}
			if steps < 30 {
				t.Fatalf("steps = %d", steps)
			}
			for id, v := range e.Values() {
				if math.Abs(v-1.0) > 1e-6 {
					t.Fatalf("rank(%d) = %f, want 1.0", id, v)
				}
			}
		})
	}
}
