// Wire codecs of the memory cloud protocols: the single-cell key/value
// requests and the ProtoMultiGet / ProtoMultiPut batch frames.

package memcloud

import (
	"encoding/binary"
	"errors"
	"fmt"
)

func encodeKV(key uint64, val []byte) []byte {
	out := make([]byte, 8+len(val)) //alloc:ok per-op sync path; batched writers encode into leases
	binary.LittleEndian.PutUint64(out, key)
	copy(out[8:], val)
	return out
}

func decodeKV(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errors.New("memcloud: short request")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// decodeMultiGetReq parses a ProtoMultiGet request.
func decodeMultiGetReq(b []byte) ([]uint64, error) {
	if len(b) < 4 {
		return nil, errors.New("memcloud: short multi-get request")
	}
	n := int(binary.LittleEndian.Uint32(b))
	if len(b) != 4+8*n {
		return nil, errors.New("memcloud: truncated multi-get request")
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(b[4+8*i:])
	}
	return keys, nil
}

// MultiGetResult is one key's answer inside a ProtoMultiGet response.
type MultiGetResult struct {
	Status byte
	Val    []byte // set only when Status == MultiGetOK
}

// DecodeMultiGetResp parses a ProtoMultiGet response into per-key results
// in request order. want is the number of keys the request carried; a
// response answering a different number of keys is malformed.
func DecodeMultiGetResp(b []byte, want int) ([]MultiGetResult, error) {
	out := make([]MultiGetResult, 0, want)
	for len(b) > 0 {
		status := b[0]
		b = b[1:]
		switch status {
		case MultiGetOK:
			if len(b) < 4 {
				return nil, errors.New("memcloud: truncated multi-get value header")
			}
			n := int(binary.LittleEndian.Uint32(b))
			b = b[4:]
			if n > len(b) {
				return nil, errors.New("memcloud: truncated multi-get value")
			}
			out = append(out, MultiGetResult{Status: status, Val: b[:n:n]})
			b = b[n:]
		case MultiGetNotFound, MultiGetWrongOwner:
			out = append(out, MultiGetResult{Status: status})
		default:
			return nil, fmt.Errorf("memcloud: unknown multi-get status %d", status)
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("memcloud: multi-get answered %d of %d keys", len(out), want)
	}
	return out, nil
}

// MultiPutReqSize returns the encoded size of a ProtoMultiPut request, so
// the store pipeline can lease the exact frame up front.
func MultiPutReqSize(items []MultiPutItem) int {
	n := 4
	for i := range items {
		n += 12 + len(items[i].Val)
	}
	return n
}

// AppendMultiPutReq encodes a ProtoMultiPut request into dst and returns
// the extended slice: u32 count, then count × [key(8) len(4) val].
// Combined with MultiPutReqSize the caller brings an exactly-sized buffer
// (a pooled lease), so encoding allocates nothing.
func AppendMultiPutReq(dst []byte, items []MultiPutItem) []byte {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(items)))
	dst = append(dst, u32[:]...)
	var hdr [12]byte
	for i := range items {
		binary.LittleEndian.PutUint64(hdr[0:], items[i].Key)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(items[i].Val)))
		dst = append(dst, hdr[:]...)
		dst = append(dst, items[i].Val...)
	}
	return dst
}

// decodeMultiPutReq parses a ProtoMultiPut request. Values alias b: the
// handler applies them before the request lease is released.
func decodeMultiPutReq(b []byte) ([]MultiPutItem, error) {
	if len(b) < 4 {
		return nil, errors.New("memcloud: short multi-put request")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n < 0 || n > len(b) { // each item needs ≥ 12 bytes; cheap upper bound first
		return nil, errors.New("memcloud: truncated multi-put request")
	}
	items := make([]MultiPutItem, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 12 {
			return nil, errors.New("memcloud: truncated multi-put item header")
		}
		key := binary.LittleEndian.Uint64(b)
		vn := int(binary.LittleEndian.Uint32(b[8:]))
		b = b[12:]
		if vn < 0 || vn > len(b) {
			return nil, errors.New("memcloud: truncated multi-put value")
		}
		items = append(items, MultiPutItem{Key: key, Val: b[:vn:vn]})
		b = b[vn:]
	}
	if len(b) != 0 {
		return nil, errors.New("memcloud: trailing bytes in multi-put request")
	}
	return items, nil
}

// DecodeMultiPutResp parses a ProtoMultiPut response into per-item status
// codes in request order. want is the number of items the request
// carried; a response answering a different number is malformed.
func DecodeMultiPutResp(b []byte, want int) ([]byte, error) {
	if len(b) != want {
		return nil, fmt.Errorf("memcloud: multi-put answered %d of %d keys", len(b), want)
	}
	for _, st := range b {
		if st > MultiPutErr {
			return nil, fmt.Errorf("memcloud: unknown multi-put status %d", st)
		}
	}
	return b, nil
}
