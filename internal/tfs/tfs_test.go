package tfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"trinity/internal/hash"
)

func data(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i%251)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := New(Options{Datanodes: 4, BlockSize: 128, Replication: 2})
	for _, size := range []int{0, 1, 127, 128, 129, 1000, 5000} {
		name := fmt.Sprintf("f%d", size)
		want := data(size, byte(size))
		if err := fs.WriteFile(name, want); err != nil {
			t.Fatal(err)
		}
		got, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestOverwrite(t *testing.T) {
	fs := New(Options{Datanodes: 3, BlockSize: 64})
	fs.WriteFile("a", data(200, 1))
	if err := fs.WriteFile("a", data(50, 2)); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("a")
	if !bytes.Equal(got, data(50, 2)) {
		t.Fatal("overwrite not visible")
	}
	// Old blocks must be released (no leak): 50 bytes over 64-byte blocks
	// with replication 3 = 3 replicas total.
	if s := fs.Stats(); s.BlocksOnNodes != 3 {
		t.Fatalf("BlocksOnNodes = %d, want 3 (old blocks leaked?)", s.BlocksOnNodes)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New(Options{})
	if _, err := fs.ReadFile("nope"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadFile missing = %v, want ErrNotExist", err)
	}
}

func TestDelete(t *testing.T) {
	fs := New(Options{})
	fs.WriteFile("a", data(10, 1))
	if err := fs.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("ReadFile after Delete = %v, want ErrNotExist", err)
	}
	if err := fs.Delete("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double Delete = %v, want ErrNotExist", err)
	}
	if s := fs.Stats(); s.BlocksOnNodes != 0 {
		t.Fatalf("blocks leaked after delete: %d", s.BlocksOnNodes)
	}
}

func TestAppendFile(t *testing.T) {
	fs := New(Options{BlockSize: 32})
	if err := fs.AppendFile("log", data(20, 1)); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("log", data(40, 2)); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("log")
	want := append(data(20, 1), data(40, 2)...)
	if !bytes.Equal(got, want) {
		t.Fatal("append mismatch")
	}
}

func TestList(t *testing.T) {
	fs := New(Options{})
	for _, n := range []string{"trunk/0", "trunk/1", "ckpt/5", "trunk/10"} {
		fs.WriteFile(n, []byte("x"))
	}
	got := fs.List("trunk/")
	want := []string{"trunk/0", "trunk/1", "trunk/10"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if len(fs.List("")) != 4 {
		t.Fatal("empty prefix should list everything")
	}
}

func TestCompareAndSwap(t *testing.T) {
	fs := New(Options{})
	// Create-if-absent.
	if err := fs.CompareAndSwap("leader", nil, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	// Second create-if-absent must fail: only one leader.
	if err := fs.CompareAndSwap("leader", nil, []byte("m2")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("second CAS = %v, want ErrCASMismatch", err)
	}
	// Swap with wrong old value fails.
	if err := fs.CompareAndSwap("leader", []byte("m9"), []byte("m2")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("wrong-old CAS = %v, want ErrCASMismatch", err)
	}
	// Correct old value succeeds.
	if err := fs.CompareAndSwap("leader", []byte("m1"), []byte("m2")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("leader")
	if string(got) != "m2" {
		t.Fatalf("leader = %q, want m2", got)
	}
	// CAS on a missing file with non-nil old fails.
	if err := fs.CompareAndSwap("ghost", []byte("x"), []byte("y")); !errors.Is(err, ErrCASMismatch) {
		t.Fatalf("missing-file CAS = %v, want ErrCASMismatch", err)
	}
}

// TestCASErrorCarriesCurrent: a failed CAS reports the contents that won,
// so a caller that lost the race can re-diff against the winning value
// without a second read (which could itself race a later writer).
func TestCASErrorCarriesCurrent(t *testing.T) {
	fs := New(Options{})
	if err := fs.WriteFile("table", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// Mismatch on existing content: Current is the winning value.
	err := fs.CompareAndSwap("table", []byte("v1"), []byte("v1b"))
	var cas *CASError
	if !errors.As(err, &cas) {
		t.Fatalf("CAS = %v (%T), want *CASError", err, err)
	}
	if string(cas.Current) != "v2" {
		t.Fatalf("Current = %q, want v2", cas.Current)
	}
	// Create-if-absent losing to an existing file also surfaces it.
	err = fs.CompareAndSwap("table", nil, []byte("v1"))
	if !errors.As(err, &cas) || string(cas.Current) != "v2" {
		t.Fatalf("create-race CAS = %v, Current = %q, want v2", err, cas.Current)
	}
	// Missing file: Current is nil, distinguishing "vacant" from "held".
	err = fs.CompareAndSwap("ghost", []byte("x"), []byte("y"))
	if !errors.As(err, &cas) {
		t.Fatalf("missing-file CAS = %v (%T), want *CASError", err, err)
	}
	if cas.Current != nil {
		t.Fatalf("missing-file Current = %q, want nil", cas.Current)
	}
	// An existing-but-empty file is "held", not "vacant".
	if err := fs.WriteFile("empty", nil); err != nil {
		t.Fatal(err)
	}
	err = fs.CompareAndSwap("empty", []byte("x"), []byte("y"))
	if !errors.As(err, &cas) {
		t.Fatalf("empty-file CAS = %v (%T), want *CASError", err, err)
	}
	if cas.Current == nil || len(cas.Current) != 0 {
		t.Fatalf("empty-file Current = %v, want non-nil empty", cas.Current)
	}
}

func TestCASElectionRace(t *testing.T) {
	// Many goroutines race to become leader; exactly one must win.
	fs := New(Options{})
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if fs.CompareAndSwap("leader", nil, []byte(fmt.Sprintf("m%d", i))) == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d leaders elected, want 1", wins)
	}
}

func TestNodeFailureSurvivable(t *testing.T) {
	fs := New(Options{Datanodes: 4, BlockSize: 64, Replication: 2})
	want := data(1000, 7)
	fs.WriteFile("trunk/3", want)
	if err := fs.FailNode(0); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("trunk/3")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted after node failure")
	}
	// Replication factor must be restored.
	if s := fs.Stats(); s.ReReplicated == 0 {
		t.Fatal("no re-replication happened")
	}
	// Survive a second failure thanks to re-replication.
	fs.FailNode(1)
	got, err = fs.ReadFile("trunk/3")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data corrupted after second failure")
	}
}

func TestAllReplicasLost(t *testing.T) {
	fs := New(Options{Datanodes: 2, BlockSize: 64, Replication: 2})
	fs.WriteFile("f", data(100, 1))
	fs.FailNode(0)
	fs.FailNode(1)
	if _, err := fs.ReadFile("f"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read after total loss = %v, want ErrUnavailable", err)
	}
	if err := fs.WriteFile("g", data(10, 1)); !errors.Is(err, ErrNoDatanodes) {
		t.Fatalf("write with no nodes = %v, want ErrNoDatanodes", err)
	}
}

func TestRecoverNode(t *testing.T) {
	fs := New(Options{Datanodes: 2, BlockSize: 64, Replication: 2})
	fs.WriteFile("f", data(100, 1))
	fs.FailNode(0)
	if err := fs.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	// Writes succeed again and place replicas on the recovered node.
	if err := fs.WriteFile("g", data(100, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("g")
	if err != nil || !bytes.Equal(got, data(100, 2)) {
		t.Fatalf("read after recovery: %v", err)
	}
	if err := fs.FailNode(99); err == nil {
		t.Fatal("FailNode out of range should error")
	}
	if err := fs.RecoverNode(-1); err == nil {
		t.Fatal("RecoverNode out of range should error")
	}
}

func TestReplicationPlacement(t *testing.T) {
	fs := New(Options{Datanodes: 5, BlockSize: 100, Replication: 3})
	fs.WriteFile("f", data(100, 1)) // exactly one block
	if s := fs.Stats(); s.BlocksOnNodes != 3 {
		t.Fatalf("replicas = %d, want 3", s.BlocksOnNodes)
	}
}

func TestReplicationCappedByNodes(t *testing.T) {
	fs := New(Options{Datanodes: 2, BlockSize: 100, Replication: 5})
	fs.WriteFile("f", data(50, 1))
	if s := fs.Stats(); s.BlocksOnNodes != 2 {
		t.Fatalf("replicas = %d, want 2 (capped)", s.BlocksOnNodes)
	}
}

func TestConcurrentFiles(t *testing.T) {
	fs := New(Options{Datanodes: 4, BlockSize: 256})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("file-%d", w)
			for i := 0; i < 50; i++ {
				want := data(300+i, byte(w))
				if err := fs.WriteFile(name, want); err != nil {
					t.Error(err)
					return
				}
				got, err := fs.ReadFile(name)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("worker %d iteration %d: bad read", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPropertyRandomFailuresNeverCorrupt(t *testing.T) {
	// Property: with replication 3 over 6 nodes, any single-failure-then-
	// re-replication sequence keeps every file readable and intact.
	f := func(seed uint64) bool {
		fs := New(Options{Datanodes: 6, BlockSize: 97, Replication: 3})
		rng := hash.NewRNG(seed)
		files := map[string][]byte{}
		for i := 0; i < 10; i++ {
			name := fmt.Sprintf("f%d", i)
			d := data(rng.Intn(500)+1, byte(i))
			fs.WriteFile(name, d)
			files[name] = d
		}
		for round := 0; round < 6; round++ {
			id := rng.Intn(6)
			fs.FailNode(id)
			fs.RecoverNode(id) // fail one node at a time, then heal
			for name, want := range files {
				got, err := fs.ReadFile(name)
				if err != nil || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTFSWrite(b *testing.B) {
	fs := New(Options{Datanodes: 4})
	d := data(64<<10, 1)
	b.SetBytes(int64(len(d)))
	for i := 0; i < b.N; i++ {
		fs.WriteFile("bench", d)
	}
}

func BenchmarkTFSRead(b *testing.B) {
	fs := New(Options{Datanodes: 4})
	d := data(64<<10, 1)
	fs.WriteFile("bench", d)
	b.SetBytes(int64(len(d)))
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadFile("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
