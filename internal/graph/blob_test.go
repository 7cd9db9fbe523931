package graph

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// Regression tests for the zero-copy blob scanners: a malformed node blob
// (truncated header, list count overrunning the blob) must surface as an
// error from blobListAt/forEachListEntry/AppendNodeLists — never a panic,
// never a silent wrong answer. The partition-view builder trusts these to
// reject corrupt cells during a trunk scan.

func validBlob() []byte {
	return EncodeNode(&Node{
		ID: 1, Label: 42, Name: "alice",
		Weights:  []int64{7, 8},
		Inlinks:  []uint64{10, 11, 12},
		Outlinks: []uint64{20, 21},
	})
}

func TestBlobListAtTruncated(t *testing.T) {
	blob := validBlob()
	// Every prefix of the blob must either decode the requested list fully
	// or error; none may panic or read out of bounds.
	for cut := 0; cut < len(blob); cut++ {
		for idx := listWeights; idx <= listOutlinks; idx++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("cut=%d idx=%d panicked: %v", cut, idx, r)
					}
				}()
				off, count, err := blobListAt(blob[:cut], idx)
				if err == nil && off+8*count > cut {
					t.Fatalf("cut=%d idx=%d accepted list overrunning blob (off=%d count=%d)", cut, idx, off, count)
				}
			}()
		}
	}
	// The full blob decodes all three lists.
	for idx, want := range []int{2, 3, 2} {
		_, count, err := blobListAt(blob, idx)
		if err != nil || count != want {
			t.Fatalf("idx=%d: count=%d err=%v, want %d", idx, count, err, want)
		}
	}
}

func TestBlobListAtCountOverrun(t *testing.T) {
	blob := validBlob()
	// Corrupt the Outlinks count header to claim far more entries than the
	// blob holds.
	off, _, err := blobListAt(blob, listOutlinks)
	if err != nil {
		t.Fatal(err)
	}
	countOff := off - 4
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[countOff:], 1<<20)
	if _, _, err := blobListAt(bad, listOutlinks); err == nil {
		t.Fatal("overrunning count accepted")
	}
	// A corrupt EARLIER list header must also fail lookups of later lists
	// (the scanner walks through it) rather than reading out of bounds.
	bad2 := append([]byte(nil), blob...)
	wOff, _, err := blobListAt(blob, listWeights)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bad2[wOff-4:], 1<<20)
	for idx := listWeights; idx <= listOutlinks; idx++ {
		if _, _, err := blobListAt(bad2, idx); err == nil {
			t.Fatalf("idx=%d accepted behind overrunning weights header", idx)
		}
	}
}

func TestForEachListEntryMalformed(t *testing.T) {
	blob := validBlob()
	// Valid: streams all entries.
	var got []uint64
	if err := forEachListEntry(blob, listInlinks, func(v uint64) bool {
		got = append(got, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{10, 11, 12}) {
		t.Fatalf("inlinks = %v", got)
	}
	// Truncated: error, and the callback never fires on garbage.
	calls := 0
	err := forEachListEntry(blob[:len(blob)-9], listOutlinks, func(uint64) bool {
		calls++
		return true
	})
	if err == nil {
		t.Fatal("truncated outlinks accepted")
	}
	if calls != 0 {
		t.Fatalf("callback fired %d times on a truncated list", calls)
	}
}

func TestAppendNodeListsMalformed(t *testing.T) {
	blob := validBlob()
	// Valid blob round-trips both link lists as appends.
	label, in, out, err := AppendNodeLists(blob, []uint64{100}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if label != 42 {
		t.Fatalf("label = %d", label)
	}
	if !reflect.DeepEqual(in, []uint64{100, 10, 11, 12}) {
		t.Fatalf("in = %v", in)
	}
	if !reflect.DeepEqual(out, []uint64{20, 21}) {
		t.Fatalf("out = %v", out)
	}
	// Every truncation errors without panicking, and the caller's slices
	// keep their original content up to their original lengths.
	for cut := 0; cut < len(blob); cut++ {
		i0, o0 := []uint64{6}, []uint64{7}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cut=%d panicked: %v", cut, r)
				}
			}()
			if _, i, o, err := AppendNodeLists(blob[:cut], i0, o0); err == nil {
				t.Fatalf("cut=%d accepted", cut)
			} else if i[0] != 6 || o[0] != 7 {
				t.Fatalf("cut=%d corrupted caller slices", cut)
			}
		}()
	}
	// Count overrun.
	bad := append([]byte(nil), blob...)
	off, _, err := blobListAt(blob, listInlinks)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bad[off-4:], 1<<24)
	if _, _, _, err := AppendNodeLists(bad, nil, nil); err == nil {
		t.Fatal("overrunning inlinks count accepted")
	}
}
