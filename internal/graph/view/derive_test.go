package view

import (
	"context"
	"slices"
	"sync"
	"testing"

	"trinity/internal/cluster"
	"trinity/internal/graph"
	"trinity/internal/hash"
	"trinity/internal/msg"
)

// sameView fails the test unless got and want hold the same snapshot:
// epochs, vertex maps, both arenas, the slot encoding and the remote
// split.
func sameView(t *testing.T, what string, got, want *View) {
	t.Helper()
	if got.epoch != want.epoch || got.trunkGen != want.trunkGen {
		t.Fatalf("%s: epochs (%d, %d), fresh build (%d, %d)", what, got.epoch, got.trunkGen, want.epoch, want.trunkGen)
	}
	eq := func(name string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("%s: %s differs from a fresh build", what, name)
		}
	}
	eq("ids", slices.Equal(got.ids, want.ids))
	eq("labels", slices.Equal(got.labels, want.labels))
	eq("outOff", slices.Equal(got.outOff, want.outOff))
	eq("out", slices.Equal(got.out, want.out))
	eq("outSlot", slices.Equal(got.outSlot, want.outSlot))
	eq("outFar", slices.Equal(got.outFar, want.outFar))
	eq("inOff", slices.Equal(got.inOff, want.inOff))
	eq("in", slices.Equal(got.in, want.in))
	gr, wr := got.RemoteInSources(), want.RemoteInSources()
	eq("remote split", len(gr) == len(wr))
	for i := range gr {
		eq("remote split", gr[i].ID == wr[i].ID && slices.Equal(gr[i].Targets, wr[i].Targets))
	}
}

// counts returns the machine cloud's view.builds and view.derives.
func counts(m *graph.Machine) (builds, derives int64) {
	scope := m.Slave().Metrics().Scope("view")
	return scope.Counter("builds").Load(), scope.Counter("derives").Load()
}

// loadHalf loads a graph of n nodes onto a new cloud of the given size.
// Only the first half has edges, so appends into the second half make new
// remote out-slots.
func loadHalf(t *testing.T, machines, n int, directed bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(directed)
	for i := uint64(0); i < uint64(n); i++ {
		b.AddNode(i, int64(i%3), "")
	}
	for i := uint64(0); i < uint64(n/2); i++ {
		b.AddEdge(i, (i*5+1)%uint64(n/2))
	}
	g, err := b.Load(context.Background(), newCloud(t, machines))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeriveMatchesBuild is the derive property: random batches of
// AddEdge — duplicates, self-loops and targets that become new remote
// slots among them — between Acquires, on directed and undirected
// graphs. After every batch each machine's Acquire patches its cached
// view, and the result equals a fresh build of the same epoch.
func TestDeriveMatchesBuild(t *testing.T) {
	for _, directed := range []bool{true, false} {
		name := "undirected"
		if directed {
			name = "directed"
		}
		t.Run(name, func(t *testing.T) {
			const n = 120
			g := loadHalf(t, 3, n, directed)
			ctx := context.Background()
			rng := hash.NewRNG(7)
			for mi := 0; mi < g.Machines(); mi++ {
				if _, err := Acquire(g.On(mi)); err != nil {
					t.Fatal(err)
				}
			}
			var last [2]uint64
			for batch := 0; batch < 40; batch++ {
				size := 1 + rng.Intn(12)
				for e := 0; e < size; e++ {
					src, dst := uint64(rng.Intn(n)), uint64(rng.Intn(n))
					switch rng.Intn(5) {
					case 0:
						dst = src // self-loop
					case 1:
						src, dst = last[0], last[1] // duplicate
					}
					last = [2]uint64{src, dst}
					if err := g.On(rng.Intn(g.Machines())).AddEdge(ctx, src, dst); err != nil {
						t.Fatal(err)
					}
				}
				for mi := 0; mi < g.Machines(); mi++ {
					m := g.On(mi)
					builds, _ := counts(m)
					v, err := Acquire(m)
					if err != nil {
						t.Fatal(err)
					}
					if b, _ := counts(m); b != builds {
						t.Fatalf("batch %d machine %d: Acquire rebuilt instead of patching", batch, mi)
					}
					fresh, err := build(m)
					if err != nil {
						t.Fatal(err)
					}
					sameView(t, name, v, fresh)
					if !fresh.exact {
						t.Fatalf("batch %d machine %d: a quiet build is not exact", batch, mi)
					}
				}
			}
			_, derives := counts(g.On(0))
			if derives == 0 {
				t.Fatal("no Acquire derived a view")
			}

			// A structural mutation drops the log: the next view is a
			// rebuild, and still right.
			m := g.On(0)
			id := localID(m, n)
			if err := m.AddNode(ctx, &graph.Node{ID: id}); err != nil {
				t.Fatal(err)
			}
			builds, _ := counts(m)
			v, err := Acquire(m)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := counts(m); b != builds+1 {
				t.Fatalf("Acquire after AddNode made %d builds, want 1", b-builds)
			}
			if _, ok := v.IndexOf(id); !ok {
				t.Fatalf("rebuilt view lacks new node %d", id)
			}
		})
	}
}

// TestDeriveOneAfterConcurrentAcquires: 8 Acquires racing after one
// AddEdge make exactly one snapshot, derived, and no build.
func TestDeriveOneAfterConcurrentAcquires(t *testing.T) {
	g := loadHalf(t, 2, 60, true)
	m := g.On(0)
	held, err := Acquire(m)
	if err != nil {
		t.Fatal(err)
	}
	src := localID(m, 0)
	if err := m.AddEdge(context.Background(), src, src); err != nil {
		t.Fatal(err)
	}
	builds, derives := counts(m)
	views := make([]*View, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i], _ = Acquire(m)
		}()
	}
	wg.Wait()
	b, d := counts(m)
	if b != builds || d != derives+1 {
		t.Fatalf("8 concurrent Acquires made %d builds and %d derives, want 0 and 1", b-builds, d-derives)
	}
	for _, v := range views {
		if v == nil || v != views[0] || v == held {
			t.Fatal("concurrent Acquires returned different or stale snapshots")
		}
	}
}

// TestDeriveRacingBuilds races edge appends against cold builds forced by
// InvalidatePartition. A build that may have seen an append whose log
// entry lands after its epoch must not be patched, or the edge would be
// counted twice; whatever the interleaving, once the appends stop the
// next snapshot equals a fresh build. Run it under -race.
func TestDeriveRacingBuilds(t *testing.T) {
	const n = 80
	g := loadHalf(t, 2, n, true)
	ctx := context.Background()
	m := g.On(0)
	for round := 0; round < 30; round++ {
		// A builder forces cold builds; a reader patches whatever is
		// cached, racy builds included.
		stop := make(chan struct{})
		var acquirers sync.WaitGroup
		for _, cold := range []bool{true, false} {
			acquirers.Add(1)
			go func() {
				defer acquirers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if cold {
						m.InvalidatePartition()
					}
					if _, err := Acquire(m); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		var writers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(seed uint64) {
				defer writers.Done()
				rng := hash.NewRNG(seed)
				for e := 0; e < 25; e++ {
					if err := g.On(rng.Intn(2)).AddEdge(ctx, uint64(rng.Intn(n)), uint64(rng.Intn(n))); err != nil {
						t.Error(err)
						return
					}
				}
			}(uint64(round*2 + w + 1))
		}
		writers.Wait()
		close(stop)
		acquirers.Wait()
		if t.Failed() {
			return
		}
		// One more append, so the next Acquire patches whatever the race
		// left cached when that snapshot is exact.
		if err := m.AddEdge(ctx, localID(m, 0), uint64(round)); err != nil {
			t.Fatal(err)
		}
		v, err := Acquire(m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := build(m)
		if err != nil {
			t.Fatal(err)
		}
		sameView(t, "after racing builds", v, fresh)
	}
}

// TestViewAfterFalseSuspicionRelease: a live machine loses every trunk to
// a table update, the way a falsely suspected machine does (the pattern of
// memcloud's TestChaosStaleTableWrongOwnerBounce), while its cached view
// is a patched one and its edge log holds a further append. Its next view
// serves none of the released vertices, and the new owner's view serves
// all of them, equal to a fresh build.
func TestViewAfterFalseSuspicionRelease(t *testing.T) {
	const n = 90
	cloud := newCloud(t, 3)
	b := graph.NewBuilder(true)
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, 0, "")
		b.AddEdge(i, (i*7+2)%n)
	}
	ctx := context.Background()
	g, err := b.Load(ctx, cloud)
	if err != nil {
		t.Fatal(err)
	}
	old, fresh := g.On(1), g.On(2)
	src := localID(old, 0)
	if _, err := Acquire(old); err != nil {
		t.Fatal(err)
	}
	if err := old.AddEdge(ctx, src, 5); err != nil {
		t.Fatal(err)
	}
	held, err := Acquire(old)
	if err != nil {
		t.Fatal(err)
	}
	if _, derives := counts(old); derives == 0 {
		t.Fatal("the cached view is not a patched one")
	}
	if err := old.AddEdge(ctx, src, 6); err != nil {
		t.Fatal(err)
	}
	released := held.IDs()

	const tableFile = "cluster/addressing-table"
	cur, err := cloud.FS().ReadFile(tableFile)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := cluster.DecodeTable(cur)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := tbl.ReassignSet(map[msg.MachineID]bool{old.Slave().ID(): true}, []msg.MachineID{fresh.Slave().ID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.FS().CompareAndSwap(tableFile, cur, nt.Encode()); err != nil {
		t.Fatal(err)
	}
	old.Slave().RefreshTable(ctx)
	fresh.Slave().RefreshTable(ctx)
	if len(old.Slave().LocalTrunkIDs()) != 0 {
		t.Fatal("the released machine still holds trunks")
	}

	v, err := Acquire(old)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumVertices() != 0 {
		t.Fatalf("the released machine's view still serves %d vertices", v.NumVertices())
	}
	vf, err := Acquire(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range released {
		if _, ok := vf.IndexOf(id); !ok {
			t.Fatalf("the new owner's view lacks released vertex %d", id)
		}
	}
	idx, _ := vf.IndexOf(src)
	if out := vf.Out(idx); !slices.Contains(out, 5) || !slices.Contains(out, 6) {
		t.Fatalf("out(%d) = %v on the new owner lacks the appended edges", src, out)
	}
	want, err := build(fresh)
	if err != nil {
		t.Fatal(err)
	}
	sameView(t, "new owner", vf, want)
}
