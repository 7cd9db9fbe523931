package graph

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"trinity/internal/cell"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
	"trinity/internal/tsl"
)

// nodeSchema is node.tsl compiled: cell.Encode over it is the reference
// the generated codec is held to.
var nodeSchema = func() *cell.StructType {
	src, err := os.ReadFile("node.tsl")
	if err != nil {
		panic(err)
	}
	return tsl.MustCompile(string(src)).Struct("GraphNode")
}()

func newCloud(t testing.TB, machines int) *memcloud.Cloud {
	c := memcloud.New(memcloud.Config{
		Machines: machines,
		Msg:      msg.Options{FlushInterval: time.Millisecond, CallTimeout: 2 * time.Second},
	})
	t.Cleanup(c.Close)
	return c
}

func TestEncodeDecodeNode(t *testing.T) {
	n := &Node{
		ID: 7, Label: -42, Name: "alice",
		Weights:  []int64{1, 2},
		Inlinks:  []uint64{10, 11},
		Outlinks: []uint64{20, 21, 22},
	}
	got, err := DecodeNode(7, EncodeNode(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, n) {
		t.Fatalf("round trip: %+v != %+v", got, n)
	}
}

func TestEncodeNodeMatchesSchema(t *testing.T) {
	// EncodeNode must agree byte for byte with cell.Encode over the
	// compiled node.tsl, for random nodes: WAL records (list count
	// offsets) and TFS backups hold these bytes.
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		n := &Node{ID: rng.Next(), Label: int64(rng.Next()), Name: strings.Repeat("x", rng.Intn(20))}
		lists := map[string]cell.Value{}
		for _, name := range []string{"Weights", "Inlinks", "Outlinks"} {
			l := make([]int64, rng.Intn(10))
			for i := range l {
				l[i] = int64(rng.Next())
			}
			lists[name] = l
		}
		for _, v := range lists["Weights"].([]int64) {
			n.Weights = append(n.Weights, v)
		}
		for _, v := range lists["Inlinks"].([]int64) {
			n.Inlinks = append(n.Inlinks, uint64(v))
		}
		for _, v := range lists["Outlinks"].([]int64) {
			n.Outlinks = append(n.Outlinks, uint64(v))
		}
		lists["Label"], lists["Name"] = n.Label, n.Name
		want, err := cell.Encode(nodeSchema, lists)
		return err == nil && bytes.Equal(EncodeNode(n), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := hash.NewRNG(seed)
		n := &Node{ID: rng.Next(), Label: int64(rng.Next())}
		for i := 0; i < rng.Intn(20); i++ {
			n.Outlinks = append(n.Outlinks, rng.Next())
		}
		for i := 0; i < rng.Intn(20); i++ {
			n.Inlinks = append(n.Inlinks, rng.Next())
		}
		name := make([]byte, rng.Intn(30))
		for i := range name {
			name[i] = byte(rng.Intn(256))
		}
		n.Name = string(name)
		got, err := DecodeNode(n.ID, EncodeNode(n))
		return err == nil && reflect.DeepEqual(got, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortBlob(t *testing.T) {
	n := &Node{ID: 1, Name: "abcdef", Outlinks: []uint64{1, 2, 3}}
	blob := EncodeNode(n)
	for _, cut := range []int{0, 5, 11, len(blob) - 1} {
		if _, err := DecodeNode(1, blob[:cut]); err == nil {
			t.Fatalf("cut %d accepted", cut)
		}
	}
}

func TestAddNodeAndEdgesDirected(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, true)
	m := g.On(0)
	for i := uint64(1); i <= 4; i++ {
		if err := m.AddNode(context.Background(), &Node{ID: i, Label: int64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]uint64{{1, 2}, {1, 3}, {2, 3}, {3, 4}}
	for _, e := range edges {
		if err := m.AddEdge(context.Background(), e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := m.Outlinks(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sortU64(out)
	if !reflect.DeepEqual(out, []uint64{2, 3}) {
		t.Fatalf("out(1) = %v", out)
	}
	in, err := m.Inlinks(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sortU64(in)
	if !reflect.DeepEqual(in, []uint64{1, 2}) {
		t.Fatalf("in(3) = %v", in)
	}
	if deg, _ := m.OutDegree(context.Background(), 3); deg != 1 {
		t.Fatalf("outdeg(3) = %d", deg)
	}
	if l, _ := m.Label(context.Background(), 2); l != 20 {
		t.Fatalf("label(2) = %d", l)
	}
	if g.EdgeCount() != 4 {
		t.Fatalf("edges = %d", g.EdgeCount())
	}
}

func TestAddEdgeUndirected(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, false)
	m := g.On(0)
	m.AddNode(context.Background(), &Node{ID: 1})
	m.AddNode(context.Background(), &Node{ID: 2})
	if err := m.AddEdge(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	o1, _ := m.Outlinks(context.Background(), 1)
	o2, _ := m.Outlinks(context.Background(), 2)
	if !reflect.DeepEqual(o1, []uint64{2}) || !reflect.DeepEqual(o2, []uint64{1}) {
		t.Fatalf("undirected edge: out(1)=%v out(2)=%v", o1, o2)
	}
}

func TestAddEdgeMissingNode(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, true)
	m := g.On(0)
	m.AddNode(context.Background(), &Node{ID: 1})
	// Find an id owned remotely to test the wire path too.
	var remote uint64
	for i := uint64(100); i < 200; i++ {
		if m.Slave().Owner(i) != m.Slave().ID() {
			remote = i
			break
		}
	}
	if err := m.AddEdge(context.Background(), 1, 999); !errors.Is(err, ErrNoNode) {
		t.Fatalf("edge to missing local = %v", err)
	}
	if err := m.AddEdge(context.Background(), remote, 1); !errors.Is(err, ErrNoNode) {
		t.Fatalf("edge from missing remote = %v", err)
	}
	// On the wire the sentinel is a code, not its message text.
	req := make([]byte, 16)
	binary.LittleEndian.PutUint64(req, remote)
	binary.LittleEndian.PutUint64(req[8:], 1)
	_, err := m.Slave().Node().Call(context.Background(), m.Slave().Owner(remote), protoAddEdge, req)
	if msg.ErrorCode(err) != codeNoNode {
		t.Fatalf("wire error %v carries code %d, want %d", err, msg.ErrorCode(err), codeNoNode)
	}
}

func TestGetNodeMissing(t *testing.T) {
	cloud := newCloud(t, 1)
	g := New(cloud, true)
	if _, err := g.On(0).GetNode(context.Background(), 404); !errors.Is(err, ErrNoNode) {
		t.Fatalf("GetNode missing = %v", err)
	}
}

func TestDegreesOfMissingNode(t *testing.T) {
	cloud := newCloud(t, 2)
	m := New(cloud, true).On(0)
	self := m.Slave().ID()
	var local, remote uint64
	for i := uint64(100); local == 0 || remote == 0; i++ {
		if m.Slave().Owner(i) == self {
			local = i
		} else {
			remote = i
		}
	}
	for _, c := range []struct {
		name string
		id   uint64
	}{{"local", local}, {"remote", remote}} {
		if _, err := m.OutDegree(context.Background(), c.id); !errors.Is(err, ErrNoNode) {
			t.Errorf("OutDegree of missing %s node = %v, want ErrNoNode", c.name, err)
		}
		if _, err := m.InDegree(context.Background(), c.id); !errors.Is(err, ErrNoNode) {
			t.Errorf("InDegree of missing %s node = %v, want ErrNoNode", c.name, err)
		}
	}
}

func TestOperationsFromEveryMachine(t *testing.T) {
	cloud := newCloud(t, 4)
	g := New(cloud, true)
	// Build a small ring using a different machine for each operation.
	const n = 20
	for i := uint64(0); i < n; i++ {
		if err := g.On(int(i)%4).AddNode(context.Background(), &Node{ID: i, Label: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if err := g.On(int(i+1)%4).AddEdge(context.Background(), i, (i+1)%n); err != nil {
			t.Fatal(err)
		}
	}
	// Verify from every machine.
	for mi := 0; mi < 4; mi++ {
		m := g.On(mi)
		for i := uint64(0); i < n; i++ {
			out, err := m.Outlinks(context.Background(), i)
			if err != nil || len(out) != 1 || out[0] != (i+1)%n {
				t.Fatalf("machine %d: out(%d) = %v, %v", mi, i, out, err)
			}
			in, err := m.Inlinks(context.Background(), i)
			if err != nil || len(in) != 1 || in[0] != (i+n-1)%n {
				t.Fatalf("machine %d: in(%d) = %v, %v", mi, i, in, err)
			}
		}
	}
	if g.NodeCount() != n {
		t.Fatalf("NodeCount = %d", g.NodeCount())
	}
}

func TestForEachOutlinkZeroCopyLocal(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, true)
	m := g.On(0)
	// Pick a locally-owned node id.
	var local uint64
	for i := uint64(0); ; i++ {
		if m.Slave().Owner(i) == m.Slave().ID() {
			local = i
			break
		}
	}
	m.AddNode(context.Background(), &Node{ID: local, Outlinks: []uint64{5, 6, 7}})
	var got []uint64
	err := m.ForEachOutlink(local, func(v uint64) bool {
		got = append(got, v)
		return v != 6 // early stop
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{5, 6}) {
		t.Fatalf("ForEachOutlink = %v", got)
	}
}

func TestConcurrentAddEdgesNoLostUpdates(t *testing.T) {
	cloud := newCloud(t, 2)
	g := New(cloud, true)
	m := g.On(0)
	const hub = 1
	m.AddNode(context.Background(), &Node{ID: hub})
	const workers = 8
	const per = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := g.On(w % 2)
			for i := 0; i < per; i++ {
				dst := uint64(1000 + w*per + i)
				if err := eng.AddNode(context.Background(), &Node{ID: dst}); err != nil {
					t.Error(err)
					return
				}
				if err := eng.AddEdge(context.Background(), hub, dst); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	out, err := m.Outlinks(context.Background(), hub)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != workers*per {
		t.Fatalf("hub out-degree = %d, want %d (lost updates)", len(out), workers*per)
	}
	seen := map[uint64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate edge to %d", v)
		}
		seen[v] = true
	}
}

func TestBuilderFlush(t *testing.T) {
	cloud := newCloud(t, 3)
	b := NewBuilder(true)
	const n = 500
	for i := uint64(0); i < n; i++ {
		b.AddNode(i, int64(i%7), "")
	}
	for i := uint64(0); i < n; i++ {
		b.AddEdge(i, (i+1)%n)
		b.AddEdge(i, (i+13)%n)
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	if b.NodeCount() != 0 {
		t.Fatal("builder not cleared after flush")
	}
	if g.NodeCount() != n {
		t.Fatalf("NodeCount = %d, want %d", g.NodeCount(), n)
	}
	if g.EdgeCount() != 2*n {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount(), 2*n)
	}
	m := g.On(0)
	out, err := m.Outlinks(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	sortU64(out)
	if !reflect.DeepEqual(out, []uint64{11, 23}) {
		t.Fatalf("out(10) = %v", out)
	}
	in, _ := m.Inlinks(context.Background(), 10)
	sortU64(in)
	if !reflect.DeepEqual(in, []uint64{9, 497}) {
		t.Fatalf("in(10) = %v", in)
	}
	if l, _ := m.Label(context.Background(), 10); l != 3 {
		t.Fatalf("label(10) = %d", l)
	}
}

func TestBuilderWeightedEdges(t *testing.T) {
	cloud := newCloud(t, 2)
	b := NewBuilder(true)
	b.AddWeightedEdge(1, 2, 5)
	b.AddWeightedEdge(1, 3, 9)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	n, err := g.On(0).GetNode(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Outlinks, []uint64{2, 3}) || !reflect.DeepEqual(n.Weights, []int64{5, 9}) {
		t.Fatalf("weighted node = %+v", n)
	}
}

func TestBuilderUndirected(t *testing.T) {
	cloud := newCloud(t, 2)
	b := NewBuilder(false)
	b.AddEdge(1, 2)
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	o1, _ := g.On(0).Outlinks(context.Background(), 1)
	o2, _ := g.On(0).Outlinks(context.Background(), 2)
	if len(o1) != 1 || len(o2) != 1 || o1[0] != 2 || o2[0] != 1 {
		t.Fatalf("undirected builder: %v %v", o1, o2)
	}
}

func sortU64(s []uint64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func BenchmarkEncodeNode(b *testing.B) {
	n := &Node{ID: 1, Label: 2, Name: "node", Outlinks: make([]uint64, 13)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeNode(n)
	}
}

func BenchmarkForEachOutlinkLocal(b *testing.B) {
	cloud := newCloud(b, 1)
	g := New(cloud, true)
	m := g.On(0)
	m.AddNode(context.Background(), &Node{ID: 1, Outlinks: make([]uint64, 13)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForEachOutlink(1, func(uint64) bool { return true })
	}
}
