package traversal

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"
)

// FuzzDecodeExpand feeds arbitrary frames to both expansion decoders. A
// frame either fails to decode or decodes to strictly ascending id lists
// that re-encode to exactly the same bytes: no panic, no miscount.
func FuzzDecodeExpand(f *testing.F) {
	// Real encodings: requests as the coordinator builds them, and a reply
	// served by an owner over a chain graph.
	req := encodeExpand(nil, []uint64{0, 1, 2, 3}, Predicate{Mode: MatchLabel, Label: 1}, true)
	f.Add(req)
	f.Add(encodeExpand(nil, []uint64{5, 1 << 40}, Predicate{Mode: MatchNamePrefix, Prefix: "David"}, false))
	f.Add(encodeExpand(nil, nil, Predicate{}, true))
	g := chainGraph(f, newCloud(f, 1), 6)
	e := New(g)
	resp, err := e.serve(context.Background(), g.On(0), req, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp)
	for _, m := range rejectedFrames() {
		f.Add(m.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if ids, pred, more, err := decodeExpand(b, nil); err == nil {
			assertAscending(t, ids)
			if re := encodeExpand(nil, ids, pred, more); !bytes.Equal(re, b) {
				t.Fatalf("request %x decodes to %v %+v %v, which encodes to %x", b, ids, pred, more, re)
			}
		}
		if out, mc, err := decodeExpandResp(b, nil); err == nil {
			if mc < 0 || mc > len(out) {
				t.Fatalf("reply %x: %d matches of %d ids", b, mc, len(out))
			}
			assertAscending(t, out[:mc])
			assertAscending(t, out[mc:])
			if re := appendIDs(appendIDs(nil, out[:mc]), out[mc:]); !bytes.Equal(re, b) {
				t.Fatalf("reply %x decodes to %v/%d, which encodes to %x", b, out, mc, re)
			}
		}
	})
}

func assertAscending(t *testing.T, ids []uint64) {
	t.Helper()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids %v not strictly ascending", ids)
		}
	}
}

// malformed is a frame its decoder must reject.
type malformed struct {
	name  string
	reply bool // a reply frame; else a request frame
	b     []byte
}

// rejectedFrames are malformed frames of each kind: truncated, an
// oversized count, a non-ascending or duplicated id list, trailing bytes
// and a bad flag byte.
func rejectedFrames() []malformed {
	req := encodeExpand(nil, []uint64{1, 2, 3}, Predicate{Mode: MatchNamePrefix, Prefix: "Da"}, true)
	resp := appendIDs(appendIDs(nil, []uint64{4}), []uint64{1, 9})
	oversized := bytes.Clone(req)
	binary.LittleEndian.PutUint32(oversized[len(oversized)-28:], 1<<31)
	badFlag := bytes.Clone(req)
	badFlag[0] = 2
	return []malformed{
		{"truncated id", false, req[:len(req)-1]},
		{"truncated header", false, req[:5]},
		{"truncated prefix", false, req[:15]},
		{"oversized count", false, oversized},
		{"descending ids", false, encodeExpand(nil, []uint64{3, 2}, Predicate{}, true)},
		{"duplicate ids", false, encodeExpand(nil, []uint64{2, 2}, Predicate{}, true)},
		{"trailing byte", false, append(bytes.Clone(req), 0)},
		{"bad flag", false, badFlag},
		{"truncated neighbors", true, resp[:len(resp)-3]},
		{"truncated count", true, resp[:2]},
		{"no neighbor list", true, appendIDs(nil, []uint64{7})},
		{"oversized neighbor count", true, append(appendIDs(nil, nil), 0xff, 0xff, 0xff, 0xff)},
		{"descending neighbors", true, appendIDs(appendIDs(nil, nil), []uint64{9, 1})},
		{"descending matches", true, appendIDs(appendIDs(nil, []uint64{9, 1}), nil)},
		{"trailing byte", true, append(bytes.Clone(resp), 0)},
	}
}

func TestDecodeExpandRejectsMalformedFrames(t *testing.T) {
	for _, m := range rejectedFrames() {
		var err error
		if m.reply {
			_, _, err = decodeExpandResp(m.b, nil)
		} else {
			_, _, _, err = decodeExpand(m.b, nil)
		}
		if err == nil {
			t.Errorf("%s (reply=%v, %x) decoded without error", m.name, m.reply, m.b)
		}
	}
}
