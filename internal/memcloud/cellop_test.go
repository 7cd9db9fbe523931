package memcloud

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"trinity/internal/msg"
)

// keysOwnedBy returns n distinct keys the addressing table places on m.
func keysOwnedBy(t *testing.T, c *Cloud, m msg.MachineID, n int) []uint64 {
	t.Helper()
	var keys []uint64
	for k := uint64(0); len(keys) < n && k < 1<<20; k++ {
		if c.Slave(0).Owner(k) == m {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("only %d of %d keys hash to machine %d", len(keys), n, m)
	}
	return keys
}

// sentinel reduces an error to the memcloud sentinel it carries, so a
// local coded error and one rebuilt from the wire code compare equal.
func sentinel(err error) error {
	for _, s := range []error{ErrNotFound, ErrExists, ErrWrongOwner} {
		if errors.Is(err, s) {
			return s
		}
	}
	return err
}

// getSettled reads a key after a failover, riding out the window in which
// the table has committed but the new owner is still loading the trunk.
// ErrNotFound is an answer, not a transient.
func getSettled(t *testing.T, s *Slave, key uint64) ([]byte, error) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := s.Get(context.Background(), key)
		if err == nil || errors.Is(err, ErrNotFound) {
			return got, sentinel(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d unreadable after failover: %v", key, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCellOpTableConformance ranges over the op table: every op's script
// — its success and its terminal error — must read the same through an
// access point that owns the key, through one that does not (sentinels
// then cross the wire as codes), and, with buffered logging and no backup,
// from the WAL after the owner is killed. A row added to cellOps without a
// script here fails the test.
func TestCellOpTableConformance(t *testing.T) {
	type step struct {
		op      int
		val     []byte
		want    []byte
		wantErr error
	}
	v1, v2 := val(24, 1), val(40, 2)
	put1 := step{op: cellPut, val: v1}
	scripts := [len(cellOps)][]step{
		cellGet: {
			{op: cellGet, wantErr: ErrNotFound},
			put1,
			{op: cellGet, want: v1},
		},
		cellPut: {
			put1,
			{op: cellPut, val: v2},
			{op: cellGet, want: v2},
		},
		cellAdd: {
			{op: cellAdd, val: v1},
			{op: cellAdd, val: v2, wantErr: ErrExists},
			{op: cellGet, want: v1},
		},
		cellRemove: {
			{op: cellRemove, wantErr: ErrNotFound},
			put1,
			{op: cellRemove},
			{op: cellGet, wantErr: ErrNotFound},
		},
		cellAppend: {
			{op: cellAppend, val: v2, wantErr: ErrNotFound},
			put1,
			{op: cellAppend, val: v2},
			{op: cellGet, want: append(append([]byte(nil), v1...), v2...)},
		},
		cellContains: {
			{op: cellContains, want: containsNo},
			put1,
			{op: cellContains, want: containsYes},
			{op: cellGet, want: v1},
		},
	}

	cfg := testConfig(3)
	cfg.BufferedLogging = true
	c := New(cfg)
	defer c.Close()
	const victim = msg.MachineID(2)
	access := []*Slave{c.Slave(int(victim)), c.Slave(0)} // the owner, then a non-owner
	keys := keysOwnedBy(t, c, victim, len(access)*len(cellOps))
	ctx := context.Background()

	type final struct {
		key  uint64
		name string
		want []byte
		err  error
	}
	var finals []final
	for i := range cellOps {
		script := scripts[i]
		exercised := false
		for a, s := range access {
			key := keys[len(access)*i+a]
			name := fmt.Sprintf("op %d via machine %d", i, s.ID())
			for n, st := range script {
				exercised = exercised || st.op == i
				out, err := s.do(ctx, &cellOps[st.op], key, st.val)
				if !bytes.Equal(out, st.want) || sentinel(err) != st.wantErr {
					t.Fatalf("%s, step %d (op %d): got (%q, %v), want (%q, %v)",
						name, n, st.op, out, err, st.want, st.wantErr)
				}
			}
			// Every script ends on the Get that states the key's final value.
			last := script[len(script)-1]
			finals = append(finals, final{key, name, last.want, last.wantErr})
		}
		if !exercised {
			t.Fatalf("cellOps[%d] has no script", i)
		}
	}

	// No backup was taken: what the survivors serve now is the WAL's replay.
	c.KillMachine(victim)
	for _, f := range finals {
		got, err := getSettled(t, c.Slave(0), f.key)
		if !bytes.Equal(got, f.want) || err != f.err {
			t.Fatalf("%s, after WAL recovery: got (%q, %v), want (%q, %v)", f.name, got, err, f.want, f.err)
		}
	}
	if c.Stats().Recoveries == 0 {
		t.Fatal("no trunk was recovered")
	}
}

// TestWALAppendFailureIsNotAcknowledged: with every TFS datanode down the
// log append fails, and no flavour of write may be acknowledged — not a
// single op served locally, not one served over the wire, not a multi-put
// group. Once the datanodes are back, writes succeed again and are
// durable: they survive the owner's death through WAL replay.
func TestWALAppendFailureIsNotAcknowledged(t *testing.T) {
	const datanodes = 3 // the TFS default
	cfg := testConfig(3)
	cfg.BufferedLogging = true
	c := New(cfg)
	defer c.Close()
	const victim = msg.MachineID(2)
	owner, remote := c.Slave(int(victim)), c.Slave(0)
	keys := keysOwnedBy(t, c, victim, 4)
	kLocal, kRemote := keys[0], keys[1]
	batch := []MultiPutItem{
		{Key: keys[2], Val: val(16, 3)},
		{Key: keys[3], Val: val(16, 4)},
	}
	ctx := context.Background()
	fs := c.FS()

	for d := 0; d < datanodes; d++ {
		if err := fs.FailNode(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := owner.Put(ctx, kLocal, val(8, 1)); err == nil {
		t.Fatal("local Put acknowledged with the WAL unwritable")
	}
	// The failed Put is visible in memory (not acknowledged is not the same
	// as not applied), so the Append below reaches its own log append.
	if err := owner.Append(ctx, kLocal, val(8, 2)); err == nil {
		t.Fatal("local Append acknowledged with the WAL unwritable")
	}
	if err := remote.Put(ctx, kRemote, val(8, 1)); err == nil {
		t.Fatal("remote Put acknowledged with the WAL unwritable")
	}
	statuses := owner.LocalMultiPut(batch)
	if !bytes.Equal(statuses, []byte{MultiPutErr, MultiPutErr}) {
		t.Fatalf("multi-put statuses with the WAL unwritable = %v, want all MultiPutErr", statuses)
	}
	if err := c.Backup(); err == nil {
		t.Fatal("Backup succeeded with every datanode down")
	}

	for d := 0; d < datanodes; d++ {
		if err := fs.RecoverNode(d); err != nil {
			t.Fatal(err)
		}
	}
	// Losing every datanode at once lost every block; clear the files whose
	// metadata outlived their data (the cluster's table and leader flag)
	// so their writers re-create them.
	for _, name := range fs.List("") {
		if _, err := fs.ReadFile(name); err != nil {
			if err := fs.Delete(name); err != nil {
				t.Fatal(err)
			}
		}
	}

	local := append(val(8, 5), val(8, 6)...)
	if err := owner.Put(ctx, kLocal, local[:8]); err != nil {
		t.Fatalf("local Put after datanodes recovered: %v", err)
	}
	if err := owner.Append(ctx, kLocal, local[8:]); err != nil {
		t.Fatalf("local Append after datanodes recovered: %v", err)
	}
	if err := remote.Put(ctx, kRemote, val(8, 7)); err != nil {
		t.Fatalf("remote Put after datanodes recovered: %v", err)
	}
	statuses = owner.LocalMultiPut(batch[:1])
	if !bytes.Equal(statuses, []byte{MultiPutOK}) {
		t.Fatalf("multi-put statuses after datanodes recovered = %v", statuses)
	}

	c.KillMachine(victim)
	for _, w := range []struct {
		key  uint64
		want []byte
	}{{kLocal, local}, {kRemote, val(8, 7)}, {keys[2], val(16, 3)}} {
		if got, err := getSettled(t, remote, w.key); err != nil || !bytes.Equal(got, w.want) {
			t.Fatalf("key %d after WAL recovery: got (%q, %v), want %q", w.key, got, err, w.want)
		}
	}
	// keys[3]'s write was never acknowledged and never logged: it died
	// with its owner.
	if _, err := getSettled(t, remote, keys[3]); err != ErrNotFound {
		t.Fatalf("unacknowledged multi-put write survived its owner: err %v", err)
	}
}
