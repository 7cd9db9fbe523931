package view

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func newCloud(t testing.TB, machines int) *memcloud.Cloud {
	c := memcloud.New(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

// localID returns an id owned by machine m, scanning from start.
func localID(m *graph.Machine, start uint64) uint64 {
	for i := start; ; i++ {
		if m.Slave().Owner(i) == m.Slave().ID() {
			return i
		}
	}
}

// remoteID returns an id NOT owned by machine m, scanning from start.
func remoteID(m *graph.Machine, start uint64) uint64 {
	for i := start; ; i++ {
		if m.Slave().Owner(i) != m.Slave().ID() {
			return i
		}
	}
}

// epochOf returns the machine's graph-layer epoch.
func epochOf(m *graph.Machine) uint64 {
	epoch, _ := m.Epochs()
	return epoch
}

func sortedU64(s []uint64) []uint64 {
	out := append([]uint64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestViewMatchesGraph cross-checks every accessor of every machine's
// view against the graph layer's per-cell reads.
func TestViewMatchesGraph(t *testing.T) {
	cloud := newCloud(t, 4)
	b := graph.NewBuilder(true)
	const n = 200
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, int64(i%5), "")
	}
	for i := uint64(0); i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+7)%n)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}

	total := 0
	for mi := 0; mi < g.Machines(); mi++ {
		m := g.On(mi)
		v, err := Acquire(m)
		if err != nil {
			t.Fatal(err)
		}
		total += v.NumVertices()
		ids := v.IDs()
		if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			t.Fatalf("machine %d: ids not ascending", mi)
		}
		for idx, id := range ids {
			if got, ok := v.IndexOf(id); !ok || got != idx {
				t.Fatalf("machine %d: IndexOf(%d) = %d,%v want %d", mi, id, got, ok, idx)
			}
			if v.IDOf(idx) != id {
				t.Fatalf("machine %d: IDOf(%d) != %d", mi, idx, id)
			}
			if m.Slave().Owner(id) != m.Slave().ID() {
				t.Fatalf("machine %d: view contains non-local vertex %d", mi, id)
			}
			if v.Label(idx) != int64(id%5) {
				t.Fatalf("label(%d) = %d", id, v.Label(idx))
			}
			wantOut, _ := m.Outlinks(context.Background(), id)
			if !reflect.DeepEqual(sortedU64(v.Out(idx)), sortedU64(wantOut)) {
				t.Fatalf("out(%d) = %v want %v", id, v.Out(idx), wantOut)
			}
			if v.OutDegree(idx) != len(wantOut) {
				t.Fatalf("outdeg(%d) = %d", id, v.OutDegree(idx))
			}
			wantIn, _ := m.Inlinks(context.Background(), id)
			if !reflect.DeepEqual(sortedU64(v.In(idx)), sortedU64(wantIn)) {
				t.Fatalf("in(%d) = %v want %v", id, v.In(idx), wantIn)
			}
			if v.InDegree(idx) != len(wantIn) {
				t.Fatalf("indeg(%d) = %d", id, v.InDegree(idx))
			}
		}
	}
	if total != n {
		t.Fatalf("views cover %d vertices, want %d", total, n)
	}
}

// TestViewOutSlots checks the slot encoding of the out arena: slots
// decode to the out-neighbors in order, a local target's slot is its
// dense index, and the remote slots number the distinct remote targets in
// ascending ID order, so both slot runs enumerate ascending IDs.
func TestViewOutSlots(t *testing.T) {
	cloud := newCloud(t, 3)
	b := graph.NewBuilder(true)
	const n = 150
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, 0, "")
	}
	for i := uint64(0); i < n; i++ {
		b.AddEdge(i, (i*7+3)%n)
		b.AddEdge(i, (i*7+3)%n) // duplicate
		b.AddEdge(i, i)         // self-loop
		b.AddEdge(i, (i+1)%n)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < g.Machines(); mi++ {
		v, err := Acquire(g.On(mi))
		if err != nil {
			t.Fatal(err)
		}
		remote := map[uint64]bool{}
		for idx := 0; idx < v.NumVertices(); idx++ {
			out, slots := v.Out(idx), v.OutSlots(idx)
			if len(slots) != len(out) {
				t.Fatalf("machine %d: vertex %d has %d slots for %d out-edges", mi, v.IDOf(idx), len(slots), len(out))
			}
			for k, s := range slots {
				if int(s) >= v.NumSlots() || v.SlotID(s) != out[k] {
					t.Fatalf("machine %d: slot %d of vertex %d decodes wrong (want %d)", mi, s, v.IDOf(idx), out[k])
				}
				li, local := v.IndexOf(out[k])
				if local != (int(s) < v.NumVertices()) || local && li != int(s) {
					t.Fatalf("machine %d: target %d (local=%v) has slot %d", mi, out[k], local, s)
				}
				if !local {
					remote[out[k]] = true
				}
			}
		}
		if len(remote) == 0 {
			t.Fatalf("machine %d: no remote targets; the fixture must cross machines", mi)
		}
		if got := v.NumSlots() - v.NumVertices(); got != len(remote) {
			t.Fatalf("machine %d: %d remote slots for %d distinct remote targets", mi, got, len(remote))
		}
		for s := v.NumVertices() + 1; s < v.NumSlots(); s++ {
			if v.SlotID(uint32(s-1)) >= v.SlotID(uint32(s)) {
				t.Fatalf("machine %d: remote slots %d, %d not in ascending ID order", mi, s-1, s)
			}
		}
	}
}

// TestViewRemoteSources checks the §5.4 bipartite split: every remote
// in-source with its local targets, no local vertex listed as remote.
func TestViewRemoteSources(t *testing.T) {
	cloud := newCloud(t, 3)
	b := graph.NewBuilder(true)
	const n = 60
	for i := uint64(0); i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+11)%n)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < g.Machines(); mi++ {
		m := g.On(mi)
		v, err := Acquire(m)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute the expected split from the in arenas.
		want := map[uint64]map[int32]bool{}
		for idx := 0; idx < v.NumVertices(); idx++ {
			for _, src := range v.In(idx) {
				if _, local := v.IndexOf(src); !local {
					if want[src] == nil {
						want[src] = map[int32]bool{}
					}
					want[src][int32(idx)] = true
				}
			}
		}
		rs := v.RemoteInSources()
		if len(rs) != len(want) {
			t.Fatalf("machine %d: %d remote sources, want %d", mi, len(rs), len(want))
		}
		var prev uint64
		for i, r := range rs {
			if i > 0 && r.ID <= prev {
				t.Fatalf("machine %d: remote sources not sorted", mi)
			}
			prev = r.ID
			if _, local := v.IndexOf(r.ID); local {
				t.Fatalf("machine %d: local vertex %d listed remote", mi, r.ID)
			}
			if m.Slave().Owner(r.ID) == m.Slave().ID() {
				t.Fatalf("machine %d: owned vertex %d listed remote", mi, r.ID)
			}
			if len(r.Targets) != len(want[r.ID]) {
				t.Fatalf("machine %d: source %d targets %v want %v", mi, r.ID, r.Targets, want[r.ID])
			}
			for _, tgt := range r.Targets {
				if !want[r.ID][tgt] {
					t.Fatalf("machine %d: source %d bogus target %d", mi, r.ID, tgt)
				}
			}
		}
	}
}

func TestViewCacheHit(t *testing.T) {
	cloud := newCloud(t, 2)
	b := graph.NewBuilder(true)
	b.AddEdge(1, 2)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	m := g.On(0)
	v1, err := Acquire(m)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Acquire(m)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("unchanged partition rebuilt instead of cache hit")
	}
}

// TestViewInvalidation is the satellite regression test: mutate the graph
// mid-job with AddEdge on a local and on a remote endpoint, assert the
// epoch bumps, a re-Acquired view reflects the new edge, and the held
// snapshot stays stable.
func TestViewInvalidation(t *testing.T) {
	cloud := newCloud(t, 3)
	gg := graph.New(cloud, true)
	m0 := gg.On(0)
	src := localID(m0, 0)
	dstLocal := localID(m0, src+1)
	dstRemote := remoteID(m0, 1000)
	for _, id := range []uint64{src, dstLocal, dstRemote} {
		if err := m0.AddNode(context.Background(), &graph.Node{ID: id}); err != nil {
			t.Fatal(err)
		}
	}

	held, err := Acquire(m0)
	if err != nil {
		t.Fatal(err)
	}
	heldEdges := len(held.out)
	epoch0 := epochOf(m0)

	// Local mutation: both endpoints on machine 0.
	if err := m0.AddEdge(context.Background(), src, dstLocal); err != nil {
		t.Fatal(err)
	}
	if epochOf(m0) == epoch0 {
		t.Fatal("local AddEdge did not bump owner epoch")
	}
	v2, err := Acquire(m0)
	if err != nil {
		t.Fatal(err)
	}
	if v2 == held {
		t.Fatal("stale view returned after local mutation")
	}
	idx, ok := v2.IndexOf(src)
	if !ok {
		t.Fatalf("src %d missing from rebuilt view", src)
	}
	if got := v2.Out(idx); len(got) != 1 || got[0] != dstLocal {
		t.Fatalf("rebuilt out(src) = %v", got)
	}

	// Remote mutation: dst owned by another machine; the directed inlink
	// write must bump the DST owner's epoch, and issuing the AddEdge from
	// a non-owner machine must still bump the SRC owner's epoch.
	owner := int(m0.Slave().Owner(dstRemote))
	mOwner := gg.On(owner)
	vRemoteBefore, err := Acquire(mOwner)
	if err != nil {
		t.Fatal(err)
	}
	epochSrc := epochOf(m0)
	other := gg.On((owner + 1) % gg.Machines())
	if err := other.AddEdge(context.Background(), src, dstRemote); err != nil {
		t.Fatal(err)
	}
	if epochOf(m0) == epochSrc {
		t.Fatal("AddEdge via non-owner machine did not bump src owner epoch")
	}
	if epochOf(mOwner) == vRemoteBefore.epoch {
		t.Fatal("inlink write did not bump dst owner epoch")
	}
	vRemoteAfter, err := Acquire(mOwner)
	if err != nil {
		t.Fatal(err)
	}
	ridx, ok := vRemoteAfter.IndexOf(dstRemote)
	if !ok {
		t.Fatalf("dstRemote %d missing from its owner view", dstRemote)
	}
	if got := vRemoteAfter.In(ridx); len(got) != 1 || got[0] != src {
		t.Fatalf("rebuilt in(dstRemote) = %v", got)
	}
	// src is not local on the dst owner, so it must appear as a remote
	// in-source feeding dstRemote.
	foundRemoteSrc := false
	for _, rs := range vRemoteAfter.RemoteInSources() {
		if rs.ID == src {
			foundRemoteSrc = true
			if len(rs.Targets) != 1 || int(rs.Targets[0]) != ridx {
				t.Fatalf("remote source %d targets = %v want [%d]", src, rs.Targets, ridx)
			}
		}
	}
	if !foundRemoteSrc {
		t.Fatalf("src %d not in dst owner's remote sources", src)
	}

	// The held snapshot never changed.
	if len(held.out) != heldEdges {
		t.Fatal("held snapshot mutated")
	}
	if idxH, ok := held.IndexOf(src); ok && len(held.Out(idxH)) != 0 {
		t.Fatal("held snapshot grew an edge")
	}
}

// TestViewEmptyPartition: a machine with no local vertices yields an
// empty view, not an error.
func TestViewEmptyPartition(t *testing.T) {
	cloud := newCloud(t, 4)
	g := graph.New(cloud, true)
	m := g.On(0)
	id := localID(m, 0)
	if err := m.AddNode(context.Background(), &graph.Node{ID: id}); err != nil {
		t.Fatal(err)
	}
	for mi := 0; mi < g.Machines(); mi++ {
		v, err := Acquire(g.On(mi))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.IndexOf(id); ok != (g.On(mi).Slave().Owner(id) == g.On(mi).Slave().ID()) {
			t.Fatalf("machine %d: wrong locality for %d", mi, id)
		}
		if v.NumVertices() == 0 && len(v.out) != 0 {
			t.Fatalf("machine %d: empty view with edges", mi)
		}
	}
}

// TestViewMalformedBlob: a corrupt cell written behind the graph layer's
// back surfaces as an Acquire error, not a panic or a silent skip.
func TestViewMalformedBlob(t *testing.T) {
	cloud := newCloud(t, 1)
	g := graph.New(cloud, true)
	m := g.On(0)
	if err := m.AddNode(context.Background(), &graph.Node{ID: 1, Outlinks: nil}); err != nil {
		t.Fatal(err)
	}
	// Truncated blob: label only, no name/list headers.
	if err := m.Slave().Put(context.Background(), 7, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	m.InvalidatePartition()
	if _, err := Acquire(m); err == nil {
		t.Fatal("Acquire accepted a truncated cell blob")
	}
}
