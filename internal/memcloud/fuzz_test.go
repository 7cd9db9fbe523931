package memcloud

import (
	"bytes"
	"encoding/binary"
	"testing"

	"trinity/internal/trunk"
)

// FuzzDecodeMultiPutReq drives the ProtoMultiPut request decoder with
// attacker-controlled bytes: counts and value lengths may lie, items may
// be truncated mid-header or mid-value. The decoder must reject cleanly
// (error, never panic, never slice out of bounds), and everything it
// accepts must re-encode to the same bytes — acceptance means the frame
// really was a well-formed request.
func FuzzDecodeMultiPutReq(f *testing.F) {
	good := AppendMultiPutReq(nil, []MultiPutItem{
		{Key: 1, Val: []byte("hello")},
		{Key: 1 << 60, Val: nil},
	})
	f.Add(good)
	f.Add(good[:3])           // short count header
	f.Add(good[:10])          // truncated item header
	f.Add(good[:len(good)-2]) // truncated value
	f.Add(append(good, 0xFF)) // trailing bytes
	overshoot := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overshoot, 1<<30) // count lies
	f.Add(overshoot)
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		items, err := decodeMultiPutReq(data)
		if err != nil {
			return
		}
		// Round-trip: accepted input is canonical.
		re := AppendMultiPutReq(make([]byte, 0, MultiPutReqSize(items)), items)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted request does not round-trip: %x -> %x", data, re)
		}
	})
}

// FuzzDecodeMultiPutReply drives the reply decoder: the status slice a
// possibly-hostile owner sends back. Any accepted reply must have exactly
// the expected length and only known status codes — a malformed reply
// must error so the batch fails closed instead of mis-resolving futures.
func FuzzDecodeMultiPutReply(f *testing.F) {
	f.Add([]byte{MultiPutOK, MultiPutWrongOwner, MultiPutErr}, 3)
	f.Add([]byte{MultiPutOK}, 2) // short answer
	f.Add([]byte{0xEE}, 1)       // unknown status
	f.Add([]byte(nil), 0)
	f.Add([]byte(nil), 3)

	f.Fuzz(func(t *testing.T, data []byte, want int) {
		if want < 0 || want > 1<<16 {
			return
		}
		statuses, err := DecodeMultiPutResp(data, want)
		if err != nil {
			return
		}
		if len(statuses) != want {
			t.Fatalf("accepted reply of %d statuses, want %d", len(statuses), want)
		}
		for _, st := range statuses {
			if st > MultiPutErr {
				t.Fatalf("accepted unknown status %d", st)
			}
		}
	})
}

// FuzzReplayWAL drives WAL recovery with arbitrary log bytes — the exact
// surface a crash (truncation) or disk corruption (garbage) controls.
// Replay must never panic: a truncated tail stops silently, anything else
// malformed returns an error. Group records get seeded corpus entries so
// the framed-body path (strict sub-record parsing) is exercised from the
// first run.
func FuzzReplayWAL(f *testing.F) {
	single := func(op byte, key uint64, val []byte) []byte {
		rec := make([]byte, 13+len(val))
		rec[0] = op
		binary.LittleEndian.PutUint64(rec[1:], key)
		binary.LittleEndian.PutUint32(rec[9:], uint32(len(val)))
		copy(rec[13:], val)
		return rec
	}
	group := encodeGroupRecord([]trunk.BatchItem{
		{Key: 1, Val: []byte("abc")},
		{Key: 2, Val: []byte("defg")},
	}, nil)

	f.Add(single(opPut, 1, []byte("v")))
	f.Add(single(opRemove, 1, nil))
	f.Add(single(opAppend, 2, []byte("x")))
	f.Add(group)
	f.Add(group[:len(group)-2])                    // crash-truncated group
	f.Add(append(group, single(opPut, 3, nil)...)) // group then single
	f.Add(append(single(opPut, 3, nil), group...)) // single then group
	liar := append([]byte(nil), group...)
	binary.LittleEndian.PutUint32(liar[1:], 1<<30) // body length lies
	f.Add(liar)
	f.Add([]byte{opGroup})                                  // header cut mid-frame
	f.Add([]byte{0x7F, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // unknown op

	// List appends: the value is the count offset (u32), then the element.
	listAppend := func(key uint64, off uint32, elem []byte) []byte {
		return single(opListAppend, key, append(binary.LittleEndian.AppendUint32(nil, off), elem...))
	}
	cell := []byte{1, 2, 3, 1, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 7, 7} // count 1 at offset 3
	put := single(opPut, 4, cell)
	f.Add(append(put, listAppend(4, 3, []byte("elemelem"))...))                           // valid
	f.Add(append(put, listAppend(4, 0, []byte("elemelem"))...))                           // count read from other bytes
	f.Add(append(put, listAppend(4, 1<<31, []byte("elemelem"))...))                       // offset far out
	f.Add(append(put, listAppend(4, uint32(len(cell)-2), []byte("e"))...))                // count past the end
	f.Add(append(put, listAppend(4, 3, nil)...))                                          // empty element
	f.Add(append(put, single(opListAppend, 4, []byte{3, 0})...))                          // value shorter than an offset
	f.Add(listAppend(5, 0, []byte("elemelem")))                                           // no such cell
	f.Add(append([]byte{opGroup, 15, 0, 0, 0}, single(opListAppend, 4, []byte{3, 0})...)) // inside a group

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := trunk.New(trunk.Options{Capacity: 1 << 16, PageSize: 1 << 10})
		_ = replay(tr, data, false) // must not panic, whatever the bytes
	})
}
