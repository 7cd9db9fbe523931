package graph

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"trinity/internal/cell"
)

// Regression tests for the generated GraphNode readers on malformed node
// blobs (truncated header, list count overrunning the blob): each must
// surface cell.ErrShortBlob — never a panic, never a silent wrong answer.
// The partition-view builder and the edge-append locators trust them to
// reject corrupt cells.

func validBlob() []byte {
	return EncodeNode(&Node{
		ID: 1, Label: 42, Name: "alice",
		Weights:  []int64{7, 8},
		Inlinks:  []uint64{10, 11, 12},
		Outlinks: []uint64{20, 21},
	})
}

var locators = []func([]byte) (int, error){locateGraphNodeWeights, locateGraphNodeInlinks, locateGraphNodeOutlinks}

func TestBlobListAtTruncated(t *testing.T) {
	blob := validBlob()
	// Every prefix of the blob must be rejected whole by the accessor and
	// by each list locator; none may panic or read out of bounds.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := NewGraphNodeAccessor(blob[:cut]); !errors.Is(err, cell.ErrShortBlob) {
			t.Fatalf("cut=%d: accessor err = %v", cut, err)
		}
		for idx, locate := range locators {
			if off, err := locate(blob[:cut]); !errors.Is(err, cell.ErrShortBlob) {
				t.Fatalf("cut=%d list=%d: accepted (off=%d, err=%v)", cut, idx, off, err)
			}
		}
	}
	// The full blob maps all three lists, and each locator names the
	// count of its list.
	a, err := NewGraphNodeAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range []int{a.Weights().Len(), a.Inlinks().Len(), a.Outlinks().Len()} {
		off, err := locators[idx](blob)
		if err != nil || int(binary.LittleEndian.Uint32(blob[off:])) != want || want != []int{2, 3, 2}[idx] {
			t.Fatalf("list=%d: off=%d err=%v count=%d", idx, off, err, want)
		}
	}
}

func TestBlobListAtCountOverrun(t *testing.T) {
	blob := validBlob()
	// Corrupt the Outlinks count header to claim far more entries than the
	// blob holds.
	off, err := locateGraphNodeOutlinks(blob)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[off:], 1<<20)
	if _, err := locateGraphNodeOutlinks(bad); err == nil {
		t.Fatal("overrunning count accepted")
	}
	// A corrupt EARLIER list header must also fail lookups of later lists
	// (the walk passes through it) rather than reading out of bounds.
	bad2 := append([]byte(nil), blob...)
	wOff, err := locateGraphNodeWeights(blob)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bad2[wOff:], 1<<20)
	for idx, locate := range locators {
		if _, err := locate(bad2); err == nil {
			t.Fatalf("list=%d accepted behind overrunning weights header", idx)
		}
	}
	if _, err := NewGraphNodeAccessor(bad2); err == nil {
		t.Fatal("accessor accepted an overrunning weights header")
	}
}

func TestForEachListEntryMalformed(t *testing.T) {
	m := New(newCloud(t, 1), true).On(0)
	blob := validBlob()
	if err := m.s.Put(context.Background(), 1, blob); err != nil {
		t.Fatal(err)
	}
	// Valid: streams all entries.
	var got []uint64
	if err := m.ForEachOutlink(1, func(v uint64) bool {
		got = append(got, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint64{20, 21}) {
		t.Fatalf("outlinks = %v", got)
	}
	// Truncated: error, and the callback never fires on garbage.
	if err := m.s.Put(context.Background(), 1, blob[:len(blob)-9]); err != nil {
		t.Fatal(err)
	}
	calls := 0
	err := m.ForEachOutlink(1, func(uint64) bool {
		calls++
		return true
	})
	if !errors.Is(err, cell.ErrShortBlob) {
		t.Fatalf("truncated outlinks: err = %v", err)
	}
	err = m.ForEachOutEdge(1, func(uint64, int64) bool {
		calls++
		return true
	})
	if !errors.Is(err, cell.ErrShortBlob) || calls != 0 {
		t.Fatalf("truncated out-edges: err = %v, callback fired %d times", err, calls)
	}
}

func TestAppendNodeListsMalformed(t *testing.T) {
	blob := validBlob()
	// A valid blob reads the same through the accessor and the decoder.
	a, err := NewGraphNodeAccessor(blob)
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeNode(1, blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Label() != 42 || n.Label != 42 || a.Name() != n.Name || a.Inlinks().slice()[2] != 12 {
		t.Fatalf("accessor and decoder disagree: %+v", n)
	}
	if !reflect.DeepEqual(a.Outlinks().slice(), n.Outlinks) || !reflect.DeepEqual(a.Weights().slice(), n.Weights) {
		t.Fatalf("lists disagree: %+v", n)
	}
	// Every truncation errors without panicking.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := DecodeNode(1, blob[:cut]); !errors.Is(err, cell.ErrShortBlob) {
			t.Fatalf("cut=%d: DecodeNode err = %v", cut, err)
		}
	}
	// Count overrun.
	bad := append([]byte(nil), blob...)
	off, err := locateGraphNodeInlinks(blob)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(bad[off:], 1<<24)
	if _, err := DecodeNode(1, bad); err == nil {
		t.Fatal("overrunning inlinks count accepted")
	}
	if _, err := NewGraphNodeAccessor(bad); err == nil {
		t.Fatal("accessor accepted an overrunning inlinks count")
	}
}
