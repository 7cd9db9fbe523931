package trunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"trinity/internal/hash"
)

func newSmall(t *testing.T) *Trunk {
	t.Helper()
	return New(Options{Capacity: 1 << 16, PageSize: 1 << 10})
}

// defragment runs one pass, as the compaction rule or the ErrFull retry
// would, and returns the bytes it reclaimed.
func defragment(tr *Trunk) int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.defragmentLocked()
}

func payload(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestAddGetRoundTrip(t *testing.T) {
	tr := newSmall(t)
	want := payload(100, 7)
	if err := tr.Add(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %v, want %v", got[:8], want[:8])
	}
	if int(tr.Stats().Cells) != 1 {
		t.Fatalf("Count = %d, want 1", int(tr.Stats().Cells))
	}
}

func TestAddDuplicate(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(1, []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add = %v, want ErrExists", err)
	}
}

func TestGetMissing(t *testing.T) {
	tr := newSmall(t)
	if _, err := tr.Get(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(1, nil); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty cell returned %d bytes", len(got))
	}
}

func TestReservedKeyRejected(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(^uint64(0), []byte("x")); err == nil {
		t.Fatal("reserved wrap key accepted")
	}
	if err := tr.Put(^uint64(0), []byte("x")); err == nil {
		t.Fatal("reserved wrap key accepted by Put")
	}
}

func TestPutOverwriteSameSize(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Put(1, payload(64, 1)); err != nil {
		t.Fatal(err)
	}
	allocsBefore := tr.Stats().Allocs
	if err := tr.Put(1, payload(64, 9)); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Allocs != allocsBefore {
		t.Fatal("same-size overwrite should not allocate")
	}
	got, _ := tr.Get(1)
	if !bytes.Equal(got, payload(64, 9)) {
		t.Fatal("overwrite not visible")
	}
}

func TestPutShrinkLeavesReservation(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Put(1, payload(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(1, payload(10, 2)); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.ReservedBytes != 90 {
		t.Fatalf("ReservedBytes = %d, want 90 (shrink keeps slot)", s.ReservedBytes)
	}
	// Growing back into the freed space must be in-place.
	relocs := s.Relocations
	if err := tr.Put(1, payload(100, 3)); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Relocations != relocs {
		t.Fatal("grow-into-reservation should not relocate")
	}
	got, _ := tr.Get(1)
	if !bytes.Equal(got, payload(100, 3)) {
		t.Fatal("payload mismatch after shrink/grow cycle")
	}
}

func TestPutGrowRelocates(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Put(1, payload(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(1, payload(500, 2)); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Relocations != 1 {
		t.Fatalf("Relocations = %d, want 1", s.Relocations)
	}
	if s.GapBytes == 0 {
		t.Fatal("relocation should leave a gap")
	}
	got, _ := tr.Get(1)
	if !bytes.Equal(got, payload(500, 2)) {
		t.Fatal("payload mismatch after relocation")
	}
}

func TestAppendUsesReservation(t *testing.T) {
	tr := New(Options{Capacity: 1 << 16, PageSize: 1 << 10,
		Reservation: func(old, growth int) int { return 64 }})
	if err := tr.Add(1, payload(16, 1)); err != nil {
		t.Fatal(err)
	}
	// First append relocates (fresh cells have no reservation) and leaves
	// a 64-byte reservation behind.
	if err := tr.Append(1, payload(16, 2)); err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if s.Relocations != 1 {
		t.Fatalf("Relocations = %d, want 1", s.Relocations)
	}
	// Subsequent small appends must be absorbed in place.
	for i := 0; i < 4; i++ {
		if err := tr.Append(1, payload(16, byte(3+i))); err != nil {
			t.Fatal(err)
		}
	}
	s = tr.Stats()
	if s.Relocations != 1 {
		t.Fatalf("Relocations = %d after reserved appends, want 1", s.Relocations)
	}
	if s.InPlaceGrowth != 4 {
		t.Fatalf("InPlaceGrowth = %d, want 4", s.InPlaceGrowth)
	}
	got, _ := tr.Get(1)
	if len(got) != 16*6 {
		t.Fatalf("payload length = %d, want 96", len(got))
	}
	want := payload(16, 1)
	for i := 1; i < 6; i++ {
		want = append(want, payload(16, byte(i+1))...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appended payload corrupted")
	}
}

// listCell builds a payload holding a length-prefixed list of 8-byte
// elements between a head and a tail, and returns it with the offset of
// the list's count.
func listCell(head, elems, tail int, seed byte) ([]byte, int) {
	b := payload(head, seed)
	b = binary.LittleEndian.AppendUint32(b, uint32(elems))
	b = append(b, payload(8*elems, seed+1)...)
	return append(b, payload(tail, seed+2)...), head
}

// listAppendModel is ListAppend's contract on a plain byte slice: p with
// elem appended to the list whose count sits at off, or false when that
// list does not fit in p.
func listAppendModel(p []byte, off int, elem []byte) ([]byte, bool) {
	if len(elem) == 0 || off < 0 || off+4 > len(p) {
		return nil, false
	}
	count := binary.LittleEndian.Uint32(p[off:])
	end := int64(off) + 4 + int64(count)*int64(len(elem))
	if end > int64(len(p)) {
		return nil, false
	}
	out := append(append(append([]byte(nil), p[:end]...), elem...), p[end:]...)
	binary.LittleEndian.PutUint32(out[off:], count+1)
	return out, true
}

// at is a ListAppend locator for a fixed count offset.
func at(off int) func([]byte) (int, error) {
	return func([]byte) (int, error) { return off, nil }
}

func TestListAppendGrowsInPlaceWithinItsReservation(t *testing.T) {
	tr := New(Options{Capacity: 1 << 16, PageSize: 1 << 10,
		Reservation: func(old, growth int) int { return 64 }})
	want, off := listCell(12, 3, 0, 1) // a tail list: nothing follows it
	if err := tr.Add(1, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		elem := payload(8, byte(10*i))
		got, err := tr.ListAppend(1, at(off), elem)
		if err != nil || got != off {
			t.Fatalf("append %d: count offset %d, err %v", i, got, err)
		}
		want, _ = listAppendModel(want, off, elem)
	}
	// A fresh cell has no reservation, so the first append relocates and
	// leaves 64 bytes behind: the next eight fit in them, and the tenth
	// relocates once more.
	s := tr.Stats()
	if s.Relocations != 2 || s.InPlaceGrowth != 8 {
		t.Fatalf("Relocations = %d, InPlaceGrowth = %d; want 2 and 8", s.Relocations, s.InPlaceGrowth)
	}
	if got, _ := tr.Get(1); !bytes.Equal(got, want) {
		t.Fatalf("list cell corrupted:\n got %x\nwant %x", got, want)
	}
	if s.LiveBytes != headerSize+int64(len(want)) || s.ReservedBytes != 64 {
		t.Fatalf("LiveBytes = %d, ReservedBytes = %d after growth", s.LiveBytes, s.ReservedBytes)
	}
}

func TestListAppendInsertsMidCell(t *testing.T) {
	// An inlink-style append: the list is followed by another list and a
	// tail, which must move up by one element, by memmove in place and by
	// copy on relocation alike.
	tr := New(Options{Capacity: 1 << 16, PageSize: 1 << 10,
		Reservation: func(old, growth int) int { return 16 }})
	first, off := listCell(5, 2, 0, 1)
	second, _ := listCell(0, 3, 7, 40)
	want := append(first, second...)
	if err := tr.Add(7, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		elem := payload(8, byte(100+i))
		if _, err := tr.ListAppend(7, at(off), elem); err != nil {
			t.Fatal(err)
		}
		want, _ = listAppendModel(want, off, elem)
		if got, _ := tr.Get(7); !bytes.Equal(got, want) {
			t.Fatalf("after append %d:\n got %x\nwant %x", i, got, want)
		}
	}
	if s := tr.Stats(); s.Relocations == 0 || s.InPlaceGrowth == 0 {
		t.Fatalf("Relocations = %d, InPlaceGrowth = %d: want both paths taken", s.Relocations, s.InPlaceGrowth)
	}
	secondOff := off + 4 + 8*7
	if n := binary.LittleEndian.Uint32(want[secondOff:]); n != 3 {
		t.Fatalf("second list count = %d after the shift, want 3", n)
	}
}

func TestListAppendDefragmentsWhenFreeSpaceIsAllGaps(t *testing.T) {
	tr := quietTrunk(64<<10, NoReservation)
	var n uint64
	for ; ; n++ {
		cell, _ := listCell(4, 100, 92, byte(n))
		if err := tr.Add(n, cell); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
	}
	// No contiguous room left: an append that must relocate is full.
	if _, err := tr.ListAppend(1, at(4), payload(8, 9)); !errors.Is(err, ErrFull) {
		t.Fatalf("ListAppend on a full trunk = %v, want ErrFull", err)
	}
	for k := uint64(0); k < n; k += 2 {
		if err := tr.Remove(k); err != nil {
			t.Fatal(err)
		}
	}
	passes := tr.Stats().DefragPasses
	if _, err := tr.ListAppend(1, at(4), payload(8, 9)); err != nil {
		t.Fatalf("ListAppend with room only in gaps: %v", err)
	}
	if got := tr.Stats().DefragPasses; got != passes+1 {
		t.Fatalf("DefragPasses %d -> %d, want one retry pass", passes, got)
	}
	cell, _ := listCell(4, 100, 92, 1)
	want, _ := listAppendModel(cell, 4, payload(8, 9))
	if got, err := tr.Get(1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cell 1 after ListAppend: %d bytes, err %v", len(got), err)
	}
	for k := uint64(3); k < n; k += 2 {
		cell, _ := listCell(4, 100, 92, byte(k))
		if got, err := tr.Get(k); err != nil || !bytes.Equal(got, cell) {
			t.Fatalf("survivor %d damaged: err %v", k, err)
		}
	}
}

func TestListAppendRejectsListsOutsideTheCell(t *testing.T) {
	tr := newSmall(t)
	cell, off := listCell(6, 2, 3, 1) // 6 + 4 + 16 + 3 = 29 bytes
	if err := tr.Add(1, cell); err != nil {
		t.Fatal(err)
	}
	huge := append([]byte(nil), cell...)
	binary.LittleEndian.PutUint32(huge[off:], ^uint32(0))
	if err := tr.Add(2, huge); err != nil {
		t.Fatal(err)
	}
	before := tr.Stats()
	errLocate := errors.New("no such list")
	for _, c := range []struct {
		name string
		key  uint64
		off  int
		elem []byte
	}{
		{"negative offset", 1, -1, payload(8, 0)},
		{"count past the end", 1, len(cell) - 3, payload(8, 0)},
		{"offset at the end", 1, len(cell), payload(8, 0)},
		{"offset far out", 1, 1 << 40, payload(8, 0)},
		{"list overruns the cell", 1, off, payload(16, 0)},
		{"count of 2^32-1", 2, off, payload(8, 0)},
		{"empty element", 1, off, nil},
	} {
		if _, err := tr.ListAppend(c.key, at(c.off), c.elem); err == nil {
			t.Errorf("%s: ListAppend succeeded", c.name)
		}
	}
	if _, err := tr.ListAppend(1, func([]byte) (int, error) { return 0, errLocate }, payload(8, 0)); !errors.Is(err, errLocate) {
		t.Errorf("locate's error = %v, want it passed through", err)
	}
	if _, err := tr.ListAppend(3, at(0), payload(8, 0)); !errors.Is(err, ErrNotFound) {
		t.Errorf("ListAppend on a missing cell = %v, want ErrNotFound", err)
	}
	if got, _ := tr.Get(1); !bytes.Equal(got, cell) {
		t.Errorf("a rejected append changed the cell: %x", got)
	}
	if got, _ := tr.Get(2); !bytes.Equal(got, huge) {
		t.Errorf("a rejected append changed the cell: %x", got)
	}
	if after := tr.Stats(); after != before {
		t.Errorf("rejected appends moved the stats:\n%+v\n%+v", before, after)
	}
}

func TestAppendMissing(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Append(9, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Append missing = %v, want ErrNotFound", err)
	}
}

func TestRemove(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(1, payload(50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Get(1); !errors.Is(err, ErrNotFound) {
		t.Fatal("cell still visible after Remove")
	}
	if err := tr.Remove(1); !errors.Is(err, ErrNotFound) {
		t.Fatal("double Remove should fail")
	}
	s := tr.Stats()
	if s.GapBytes != headerSize+50 {
		t.Fatalf("GapBytes = %d, want %d", s.GapBytes, headerSize+50)
	}
	if s.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d, want 0", s.LiveBytes)
	}
}

func TestReAddAfterRemove(t *testing.T) {
	tr := newSmall(t)
	for i := 0; i < 10; i++ {
		if err := tr.Add(1, payload(20, byte(i))); err != nil {
			t.Fatal(err)
		}
		got, _ := tr.Get(1)
		if !bytes.Equal(got, payload(20, byte(i))) {
			t.Fatalf("round %d payload mismatch", i)
		}
		if err := tr.Remove(1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestViewZeroCopyWrite(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(1, payload(8, 0)); err != nil {
		t.Fatal(err)
	}
	err := tr.Update(1, func(p []byte) error {
		p[0] = 0xFF
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen byte
	if err := tr.View(1, func(p []byte) error { seen = p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 0xFF {
		t.Fatal("in-place write via Update not visible to View")
	}
}

func TestViewErrorPropagates(t *testing.T) {
	tr := newSmall(t)
	tr.Add(1, []byte("x"))
	sentinel := errors.New("boom")
	if err := tr.View(1, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("View error = %v, want sentinel", err)
	}
	if err := tr.View(2, func([]byte) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View missing = %v, want ErrNotFound", err)
	}
	if err := tr.Update(1, func([]byte) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Update error = %v, want sentinel", err)
	}
	if err := tr.Update(2, func([]byte) error { return nil }); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Update missing = %v, want ErrNotFound", err)
	}
}

// quietTrunk is a trunk of one page: no gap can reach a page without
// filling the trunk, so the compaction rule stays quiet and a test that
// builds gaps on purpose reaches the pass only through defragment or the
// ErrFull retry.
func quietTrunk(capacity int64, policy ReservationPolicy) *Trunk {
	return New(Options{Capacity: capacity, PageSize: capacity, Reservation: policy})
}

func TestDefragmentReclaimsGaps(t *testing.T) {
	tr := quietTrunk(1<<16, nil)
	for i := uint64(0); i < 100; i++ {
		if err := tr.Add(i, payload(50, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 100; i += 2 {
		tr.Remove(i)
	}
	gaps := tr.Stats().GapBytes
	if gaps == 0 {
		t.Fatal("expected gaps")
	}
	reclaimed := defragment(tr)
	if reclaimed < gaps {
		t.Fatalf("reclaimed %d < gaps %d", reclaimed, gaps)
	}
	s := tr.Stats()
	if s.GapBytes != 0 {
		t.Fatalf("GapBytes = %d after defrag, want 0", s.GapBytes)
	}
	// Survivors intact.
	for i := uint64(1); i < 100; i += 2 {
		got, err := tr.Get(i)
		if err != nil {
			t.Fatalf("cell %d lost: %v", i, err)
		}
		if !bytes.Equal(got, payload(50, byte(i))) {
			t.Fatalf("cell %d corrupted", i)
		}
	}
}

func TestDefragmentNoWorkIsFree(t *testing.T) {
	tr := newSmall(t)
	tr.Add(1, payload(10, 1))
	passes := tr.Stats().DefragPasses
	if got := defragment(tr); got != 0 {
		t.Fatalf("Defragment on clean trunk reclaimed %d", got)
	}
	if tr.Stats().DefragPasses != passes {
		t.Fatal("clean trunk should skip the pass entirely")
	}
}

func TestDefragmentTrimsReservations(t *testing.T) {
	tr := newSmall(t)
	tr.Add(1, payload(16, 1))
	tr.Append(1, payload(16, 2)) // relocation leaves a reservation
	if tr.Stats().ReservedBytes == 0 {
		t.Fatal("expected a live reservation")
	}
	defragment(tr)
	if r := tr.Stats().ReservedBytes; r != 0 {
		t.Fatalf("ReservedBytes = %d after defrag, want 0 (short-lived)", r)
	}
	got, _ := tr.Get(1)
	want := append(payload(16, 1), payload(16, 2)...)
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted by reservation trim")
	}
}

func TestCircularWrapAround(t *testing.T) {
	// Force the head to wrap by churning cells through a small trunk.
	tr := New(Options{Capacity: 8 << 10, PageSize: 1 << 10})
	live := make(map[uint64][]byte)
	rng := hash.NewRNG(1)
	var next uint64
	for round := 0; round < 2000; round++ {
		if len(live) < 20 {
			next++
			p := payload(rng.Intn(200)+1, byte(next))
			if err := tr.Add(next, p); err != nil {
				if errors.Is(err, ErrFull) {
					continue
				}
				t.Fatal(err)
			}
			live[next] = p
		} else {
			// Remove a pseudo-random live key.
			for k := range live {
				if err := tr.Remove(k); err != nil {
					t.Fatal(err)
				}
				delete(live, k)
				break
			}
		}
		if round%97 == 0 {
			defragment(tr)
		}
	}
	for k, want := range live {
		got, err := tr.Get(k)
		if err != nil {
			t.Fatalf("cell %d lost: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d corrupted", k)
		}
	}
	if tr.Stats().PageDecommits == 0 {
		t.Fatal("expected page decommits during circular churn")
	}
}

func TestTrunkFullAndRecovery(t *testing.T) {
	tr := New(Options{Capacity: 4 << 10, PageSize: 1 << 10})
	var added []uint64
	for i := uint64(1); ; i++ {
		if err := tr.Add(i, payload(100, byte(i))); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
		added = append(added, i)
	}
	if len(added) == 0 {
		t.Fatal("nothing fit")
	}
	// Free half; a new Add (which retries after defragmentation) fits.
	for _, k := range added[:len(added)/2] {
		tr.Remove(k)
	}
	if err := tr.Add(10_000, payload(100, 1)); err != nil {
		t.Fatalf("Add after freeing space: %v", err)
	}
}

func TestAppendAndPutDefragmentWhenFreeSpaceIsAllGaps(t *testing.T) {
	// Fill the trunk, then punch a hole at every other cell: half the
	// trunk is free but none of it is contiguous. Every growing mutation
	// must reach the one defragment-and-retry path, Append included.
	tr := quietTrunk(64<<10, NoReservation)
	var n uint64
	for ; ; n++ {
		if err := tr.Add(n, payload(1000, byte(n))); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if err := tr.Remove(k); err != nil {
			t.Fatal(err)
		}
	}
	if gaps := tr.Stats().GapBytes; gaps < 30<<10 {
		t.Fatalf("GapBytes = %d, want about half the trunk", gaps)
	}
	if err := tr.Append(1, payload(500, 7)); err != nil {
		t.Fatalf("Append with room only in gaps: %v", err)
	}
	if err := tr.Put(3, payload(1500, 9)); err != nil {
		t.Fatalf("Put with room only in gaps: %v", err)
	}
	want := append(payload(1000, 1), payload(500, 7)...)
	if got, err := tr.Get(1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cell 1 after Append: %d bytes, err %v", len(got), err)
	}
	if got, err := tr.Get(3); err != nil || !bytes.Equal(got, payload(1500, 9)) {
		t.Fatalf("cell 3 after Put: %d bytes, err %v", len(got), err)
	}
	for k := uint64(5); k < n; k += 2 {
		if got, err := tr.Get(k); err != nil || !bytes.Equal(got, payload(1000, byte(k))) {
			t.Fatalf("survivor %d damaged: err %v", k, err)
		}
	}
}

func TestOversizedAllocation(t *testing.T) {
	tr := New(Options{Capacity: 4 << 10, PageSize: 1 << 10})
	if err := tr.Add(1, make([]byte, 64<<10)); !errors.Is(err, ErrFull) {
		t.Fatalf("oversized Add = %v, want ErrFull", err)
	}
}

func TestForEachAndKeys(t *testing.T) {
	tr := newSmall(t)
	want := map[uint64]byte{}
	for i := uint64(0); i < 50; i++ {
		tr.Add(i, payload(10, byte(i)))
		want[i] = byte(i)
	}
	seen := map[uint64]bool{}
	tr.ForEach(func(k uint64, p []byte) bool {
		if p[0] != want[k] {
			t.Errorf("cell %d wrong payload", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("ForEach visited %d cells, want 50", len(seen))
	}
	if len(tr.Keys()) != 50 {
		t.Fatalf("Keys returned %d, want 50", len(tr.Keys()))
	}
	// Early termination.
	n := 0
	tr.ForEach(func(uint64, []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("ForEach did not stop early: %d", n)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	tr := newSmall(t)
	want := map[uint64][]byte{}
	rng := hash.NewRNG(3)
	for i := uint64(0); i < 200; i++ {
		p := payload(rng.Intn(100), byte(i))
		tr.Put(i, p)
		want[i] = p
	}
	// Create fragmentation so dump exercises non-contiguous layouts.
	for i := uint64(0); i < 200; i += 3 {
		tr.Remove(i)
		delete(want, i)
	}
	var buf bytes.Buffer
	if err := tr.DumpTo(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newSmall(t)
	if err := restored.LoadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if int(restored.Stats().Cells) != len(want) {
		t.Fatalf("restored %d cells, want %d", int(restored.Stats().Cells), len(want))
	}
	for k, p := range want {
		got, err := restored.Get(k)
		if err != nil {
			t.Fatalf("cell %d missing after restore: %v", k, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("cell %d corrupted after restore", k)
		}
	}
}

func TestReadersNeverSeeTornUpdate(t *testing.T) {
	// An Update callback fills the cell in place with one byte value after
	// another; every concurrent read, through each reader, must hold one
	// whole fill, never the halves of two.
	const size = 32 << 10
	for _, tc := range []struct {
		name string
		read func(tr *Trunk) ([]byte, error)
	}{
		{"Get", func(tr *Trunk) ([]byte, error) { return tr.Get(1) }},
		{"ReadInto", func(tr *Trunk) ([]byte, error) { return tr.ReadInto(1, nil) }},
		{"View", func(tr *Trunk) ([]byte, error) {
			var got []byte
			err := tr.View(1, func(p []byte) error { got = append(got, p...); return nil })
			return got, err
		}},
		{"ForEach", func(tr *Trunk) ([]byte, error) {
			var got []byte
			tr.ForEach(func(_ uint64, p []byte) bool { got = append(got, p...); return true })
			return got, nil
		}},
		{"DumpTo+LoadFrom", func(tr *Trunk) ([]byte, error) {
			var buf bytes.Buffer
			if err := tr.DumpTo(&buf); err != nil {
				return nil, err
			}
			restored := New(Options{Capacity: 1 << 17})
			if err := restored.LoadFrom(&buf); err != nil {
				return nil, err
			}
			return restored.Get(1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New(Options{Capacity: 1 << 17})
			if err := tr.Add(1, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for v := byte(1); ; v++ {
					select {
					case <-stop:
						return
					default:
					}
					tr.Update(1, func(p []byte) error {
						for i := range p {
							p[i] = v
						}
						return nil
					})
				}
			}()
			defer func() { close(stop); <-done }()
			for i := 0; i < 200; i++ {
				got, err := tc.read(tr)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != size {
					t.Fatalf("read %d returned %d bytes, want %d", i, len(got), size)
				}
				if n := bytes.Count(got, got[:1]); n != size {
					t.Fatalf("read %d is torn: %d of %d bytes hold %#x", i, n, size, got[0])
				}
			}
		})
	}
}

func TestLoadFromCorrupt(t *testing.T) {
	tr := newSmall(t)
	tr.Add(1, payload(40, 1))
	var buf bytes.Buffer
	tr.DumpTo(&buf)
	data := buf.Bytes()

	// Truncated.
	if err := newSmall(t).LoadFrom(bytes.NewReader(data[:len(data)-5])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated load = %v, want ErrCorrupt", err)
	}
	// Bit flip in payload breaks the checksum.
	flipped := append([]byte(nil), data...)
	flipped[20] ^= 0xFF
	if err := newSmall(t).LoadFrom(bytes.NewReader(flipped)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted load = %v, want ErrCorrupt", err)
	}
	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 0
	if err := newSmall(t).LoadFrom(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad-magic load = %v, want ErrCorrupt", err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	tr := New(Options{Capacity: 4 << 20, PageSize: 1 << 12})
	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := hash.NewRNG(uint64(w))
			base := uint64(w) << 32
			for i := 0; i < opsPerWorker; i++ {
				key := base + uint64(rng.Intn(100))
				switch rng.Intn(5) {
				case 0, 1:
					if err := tr.Put(key, payload(rng.Intn(64)+1, byte(key))); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := tr.Get(key); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				case 3:
					if err := tr.Append(key, payload(8, byte(i))); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				case 4:
					if err := tr.Remove(key); err != nil && !errors.Is(err, ErrNotFound) {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				defragment(tr)
			}
		}
	}()
	wg.Wait()
	close(stop)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Worker payloads are isolated by key prefix, so each surviving cell
	// must start with its own key byte.
	tr.ForEach(func(k uint64, p []byte) bool {
		if len(p) > 0 && p[0] != byte(k) {
			t.Errorf("cell %#x corrupted under concurrency", k)
			return false
		}
		return true
	})
}

func TestStatsInvariants(t *testing.T) {
	// Property: across random op sequences, live+gap+reserved bytes never
	// exceed used bytes, and utilization stays in (0, 1].
	f := func(seed uint64) bool {
		tr := New(Options{Capacity: 1 << 15, PageSize: 1 << 10})
		rng := hash.NewRNG(seed)
		for i := 0; i < 300; i++ {
			key := uint64(rng.Intn(40))
			switch rng.Intn(5) {
			case 0:
				tr.Put(key, payload(rng.Intn(128), byte(key)))
			case 1:
				tr.Remove(key)
			case 2:
				tr.Append(key, payload(rng.Intn(32), 1))
			case 3:
				defragment(tr)
			case 4:
				cell, off := listCell(rng.Intn(16), rng.Intn(8), rng.Intn(16), byte(key))
				tr.Put(key, cell)
				for j := rng.Intn(12); j > 0; j-- {
					tr.ListAppend(key, at(off), payload(8, byte(j)))
				}
			}
			s := tr.Stats()
			if s.LiveBytes+s.GapBytes+s.ReservedBytes > s.UsedBytes {
				return false
			}
			if s.UsedBytes > s.CommittedBytes {
				return false
			}
			if s.LiveBytes < 0 || s.GapBytes < 0 || s.ReservedBytes < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestModelBasedRandomOps(t *testing.T) {
	// Property: the trunk behaves exactly like a map[uint64][]byte under
	// any sequence of Put/Append/ListAppend/Remove/defragment, and no
	// operation
	// leaves it above the compaction trigger.
	f := func(seed uint64) bool {
		tr := New(Options{Capacity: 1 << 16, PageSize: 1 << 10})
		model := map[uint64][]byte{}
		listAt := map[uint64]int{} // where the last list-shaped Put put its count
		rng := hash.NewRNG(seed)
		for i := 0; i < 500; i++ {
			key := uint64(rng.Intn(30))
			switch rng.Intn(7) {
			case 0, 1:
				p := payload(rng.Intn(100), byte(rng.Next()))
				if tr.Put(key, p) == nil {
					model[key] = p
				}
			case 5:
				p, off := listCell(rng.Intn(20), rng.Intn(4), rng.Intn(20), byte(rng.Next()))
				if tr.Put(key, p) == nil {
					model[key] = p
					listAt[key] = off
				}
			case 6:
				// Mostly the offset a list really sits at; now and then
				// any offset, whose "count" is whatever bytes are there.
				off := listAt[key]
				if rng.Intn(4) == 0 {
					off = rng.Intn(110) - 5
				}
				elem := payload(8, byte(rng.Next()))
				_, err := tr.ListAppend(key, at(off), elem)
				p, ok := model[key]
				switch {
				case !ok:
					if !errors.Is(err, ErrNotFound) {
						return false
					}
				default:
					want, fits := listAppendModel(p, off, elem)
					if fits != (err == nil) {
						return false
					}
					if fits {
						model[key] = want
					}
				}
			case 2:
				extra := payload(rng.Intn(30), byte(rng.Next()))
				err := tr.Append(key, extra)
				if _, ok := model[key]; ok {
					if err != nil {
						return false
					}
					model[key] = append(append([]byte(nil), model[key]...), extra...)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 3:
				err := tr.Remove(key)
				if _, ok := model[key]; ok != (err == nil) {
					return false
				}
				delete(model, key)
			case 4:
				defragment(tr)
			}
			if s := tr.Stats(); s.GapBytes >= s.LiveBytes && s.GapBytes >= tr.pageSize {
				return false // the compaction rule never leaves a trunk here
			}
		}
		if int(tr.Stats().Cells) != len(model) {
			return false
		}
		for k, want := range model {
			got, err := tr.Get(k)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationImprovesAfterDefrag(t *testing.T) {
	// The 20,000 gap bytes below stay under one 32 KiB page, so the
	// compaction rule stays quiet and the pass is the explicit one. (A
	// one-page quietTrunk would have nothing to decommit.)
	tr := New(Options{Capacity: 1 << 18, PageSize: 1 << 15})
	for i := uint64(0); i < 500; i++ {
		tr.Add(i, payload(64, byte(i)))
	}
	for i := uint64(0); i < 500; i += 2 {
		tr.Remove(i)
	}
	// Utilization: the fraction of committed memory holding live data.
	utilization := func() float64 {
		st := tr.Stats()
		return float64(st.LiveBytes) / float64(st.CommittedBytes)
	}
	before := utilization()
	defragment(tr)
	after := utilization()
	if after <= before {
		t.Fatalf("utilization %f -> %f, expected improvement", before, after)
	}
}

func TestManySmallCells(t *testing.T) {
	// The motivating workload: billions of small cells at paper scale;
	// here, enough to cross many pages and trigger index growth.
	tr := New(Options{Capacity: 8 << 20, PageSize: 1 << 12})
	const n = 50_000
	for i := uint64(0); i < n; i++ {
		if err := tr.Add(i, payload(16, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if int(tr.Stats().Cells) != n {
		t.Fatalf("Count = %d, want %d", int(tr.Stats().Cells), n)
	}
	s := tr.Stats()
	wantLive := int64(n * (headerSize + 16))
	if s.LiveBytes != wantLive {
		t.Fatalf("LiveBytes = %d, want %d", s.LiveBytes, wantLive)
	}
	for _, i := range []uint64{0, 1, n / 2, n - 1} {
		got, err := tr.Get(i)
		if err != nil || !bytes.Equal(got, payload(16, byte(i))) {
			t.Fatalf("cell %d wrong: %v", i, err)
		}
	}
}

func TestIndexAddsNoHeapObjectPerCell(t *testing.T) {
	// A trunk is one object to the garbage collector (§6.1): its index
	// holds entries by value, so 100k cells add a few hundred map groups,
	// not one heap object per cell.
	const n = 100_000
	tr := New(Options{Capacity: 1 << 25})
	p := payload(128, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < n; i++ {
		if err := tr.Add(i, p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tr)
	if grew := int64(after.HeapObjects) - int64(before.HeapObjects); grew >= 1000 {
		t.Fatalf("%d cells added %d heap objects, want < 1000", n, grew)
	}
}

func BenchmarkTrunkPut(b *testing.B) {
	// Put over a bounded key space: inserts first, same-size overwrites
	// after, so the benchmark is stable for any b.N.
	tr := New(Options{Capacity: 1 << 28})
	p := payload(64, 1)
	const keys = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i%keys), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrunkGet(b *testing.B) {
	tr := New(Options{Capacity: 1 << 26})
	p := payload(64, 1)
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		tr.Add(i, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(uint64(i % n)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrunkView(b *testing.B) {
	tr := New(Options{Capacity: 1 << 26})
	p := payload(64, 1)
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		tr.Add(i, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.View(uint64(i%n), func([]byte) error { return nil })
	}
}

// BenchmarkTrunkExpansionReserved and ...NoReservation form the §6.1
// ablation: growing cells with and without the short-lived reservation
// mechanism. The reserved variant should show far fewer relocations. The
// trunk compacts itself; no pass is run by hand.
func benchmarkExpansion(b *testing.B, policy ReservationPolicy) {
	tr := New(Options{Capacity: 1 << 28, Reservation: policy})
	const cells = 1000
	for i := uint64(0); i < cells; i++ {
		tr.Add(i, payload(16, byte(i)))
	}
	extra := payload(8, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Append(uint64(i%cells), extra); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Stats().Relocations)/float64(b.N), "relocs/op")
}

func BenchmarkTrunkExpansionReserved(b *testing.B) {
	benchmarkExpansion(b, DefaultReservation)
}

func BenchmarkTrunkExpansionNoReservation(b *testing.B) {
	benchmarkExpansion(b, NoReservation)
}

func ExampleTrunk() {
	tr := New(Options{Capacity: 1 << 20})
	tr.Put(42, []byte("hello"))
	v, _ := tr.Get(42)
	fmt.Println(string(v))
	// Output: hello
}

func TestReadIntoAppends(t *testing.T) {
	tr := newSmall(t)
	a, b := payload(40, 1), payload(60, 2)
	if err := tr.Add(1, a); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(2, b); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 128)
	dst, err := tr.ReadInto(1, dst)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = tr.ReadInto(2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, append(append([]byte(nil), a...), b...)) {
		t.Fatal("ReadInto did not append payloads in order")
	}
	// Missing key: dst comes back unchanged alongside ErrNotFound.
	before := len(dst)
	dst, err = tr.ReadInto(404, dst)
	if !errors.Is(err, ErrNotFound) || len(dst) != before {
		t.Fatalf("ReadInto missing = (%d bytes, %v), want unchanged + ErrNotFound", len(dst), err)
	}
}

func TestPutBatchAppliesInOrder(t *testing.T) {
	tr := newSmall(t)
	if err := tr.Add(5, payload(20, 9)); err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Key: 1, Val: payload(30, 1)},      // fresh insert
		{Key: 2, Val: payload(30, 2)},      // fresh insert
		{Key: 5, Val: payload(40, 3)},      // overwrite existing
		{Key: 1, Val: payload(30, 4)},      // same-batch overwrite: later wins
		{Key: 3, Val: make([]byte, 1<<20)}, // too large for the trunk
	}
	errs := tr.PutBatch(items)
	if errs == nil {
		t.Fatal("expected per-item errors (the oversized item must fail)")
	}
	for i, err := range errs {
		if i == 4 {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("item 4 = %v, want ErrFull", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("item %d = %v, want nil", i, err)
		}
	}
	for _, want := range []struct {
		key  uint64
		seed byte
		n    int
	}{{1, 4, 30}, {2, 2, 30}, {5, 3, 40}} {
		got, err := tr.Get(want.key)
		if err != nil || !bytes.Equal(got, payload(want.n, want.seed)) {
			t.Fatalf("key %d after batch: %v", want.key, err)
		}
	}
}

func TestPutBatchAllSuccessReturnsNil(t *testing.T) {
	tr := newSmall(t)
	items := make([]BatchItem, 64)
	for i := range items {
		items[i] = BatchItem{Key: uint64(i), Val: payload(16, byte(i))}
	}
	if errs := tr.PutBatch(items); errs != nil {
		t.Fatalf("all-success batch returned %v", errs)
	}
	if int(tr.Stats().Cells) != 64 {
		t.Fatalf("Count = %d, want 64", int(tr.Stats().Cells))
	}
}

func TestPutBatchDefragsOnFull(t *testing.T) {
	// Fill the trunk, free half without compacting, then batch-write
	// payloads that only fit after defragmentation: PutBatch must defrag
	// and retry the ErrFull items rather than failing them.
	tr := New(Options{Capacity: 4 << 10, PageSize: 1 << 10})
	var added []uint64
	for i := uint64(1); ; i++ {
		if err := tr.Add(i, payload(100, byte(i))); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatal(err)
			}
			break
		}
		added = append(added, i)
	}
	for _, k := range added[:len(added)/2] {
		if err := tr.Remove(k); err != nil {
			t.Fatal(err)
		}
	}
	items := []BatchItem{
		{Key: 10_000, Val: payload(100, 1)},
		{Key: 10_001, Val: payload(100, 2)},
	}
	if errs := tr.PutBatch(items); errs != nil {
		t.Fatalf("batch after freeing space: %v", errs)
	}
	for i, k := range []uint64{10_000, 10_001} {
		got, err := tr.Get(k)
		if err != nil || !bytes.Equal(got, payload(100, byte(i+1))) {
			t.Fatalf("key %d after defrag retry: %v", k, err)
		}
	}
	// Survivors of the defragmentation are intact.
	for _, k := range added[len(added)/2:] {
		if _, err := tr.Get(k); err != nil {
			t.Fatalf("pre-existing key %d lost: %v", k, err)
		}
	}
}

func TestPutBatchMatchesSequentialPuts(t *testing.T) {
	// Property: a batch leaves the trunk in exactly the state sequential
	// Puts would.
	rng := hash.NewRNG(7)
	batch := New(Options{Capacity: 1 << 16, PageSize: 1 << 10})
	seq := New(Options{Capacity: 1 << 16, PageSize: 1 << 10})
	items := make([]BatchItem, 300)
	for i := range items {
		items[i] = BatchItem{
			Key: uint64(rng.Intn(50)),
			Val: payload(rng.Intn(60)+1, byte(i)),
		}
	}
	berrs := batch.PutBatch(items)
	for i, it := range items {
		err := seq.Put(it.Key, it.Val)
		var berr error
		if berrs != nil {
			berr = berrs[i]
		}
		if !errors.Is(berr, err) && !errors.Is(err, berr) {
			t.Fatalf("item %d: batch err %v, sequential err %v", i, berr, err)
		}
	}
	if int(batch.Stats().Cells) != int(seq.Stats().Cells) {
		t.Fatalf("Count: batch %d, sequential %d", int(batch.Stats().Cells), int(seq.Stats().Cells))
	}
	seq.ForEach(func(k uint64, want []byte) bool {
		got, err := batch.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %d diverged: %v", k, err)
		}
		return true
	})
}
