// Package graph implements Trinity's graph model (paper §4.1) on top of
// the memory cloud: graph nodes are cells, edges are cell-ID lists inside
// node cells (SimpleEdge), and all access goes through the cell accessor
// machinery so the topology lives in blobs, not runtime objects.
//
// The node schema is declared in TSL (NodeTSL). The engine reads and
// writes node blobs with the hand-written codec below; the tests compile
// NodeTSL and check that the codec matches the schema-driven encoder and
// accessor byte for byte.
package graph

import (
	"encoding/binary"
	"fmt"

	"trinity/internal/cell"
)

// NodeTSL is the TSL declaration of a graph node cell. Outlinks is
// deliberately the final field: a tail List<long> supports O(1) edge
// appends (count bump + blob append) without shifting the cell.
const NodeTSL = `
// A general-purpose graph node. Label carries an application-defined
// 64-bit tag (e.g. a vertex type or an interned name) used by label-aware
// algorithms such as subgraph matching; Name is optional human-readable
// payload; Weights, when non-empty, is parallel to Outlinks.
[CellType: NodeCell]
cell struct GraphNode
{
	long Label;
	string Name;
	List<long> Weights;
	[EdgeType: SimpleEdge, ReferencedCell: GraphNode]
	List<long> Inlinks;
	[EdgeType: SimpleEdge, ReferencedCell: GraphNode]
	List<long> Outlinks;
}
`

// Node is the decoded form of a node cell.
type Node struct {
	ID       uint64
	Label    int64
	Name     string
	Weights  []int64
	Inlinks  []uint64
	Outlinks []uint64
}

// EncodeNode serializes a node into the GraphNode blob layout. It is the
// fast-path equivalent of cell.Encode over the compiled NodeTSL (tested
// to match).
func EncodeNode(n *Node) []byte {
	size := 8 + 4 + len(n.Name) + 4 + 8*len(n.Weights) + 4 + 8*len(n.Inlinks) + 4 + 8*len(n.Outlinks)
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, uint64(n.Label))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Name)))
	b = append(b, n.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Weights)))
	for _, w := range n.Weights {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Inlinks)))
	for _, v := range n.Inlinks {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(n.Outlinks)))
	for _, v := range n.Outlinks {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// DecodeNode parses a GraphNode blob.
func DecodeNode(id uint64, blob []byte) (*Node, error) {
	v := &view{b: blob}
	n := &Node{ID: id}
	var err error
	if n.Label, err = v.long(); err != nil {
		return nil, err
	}
	if n.Name, err = v.str(); err != nil {
		return nil, err
	}
	if n.Weights, err = v.longs(); err != nil {
		return nil, err
	}
	var in, out []int64
	if in, err = v.longs(); err != nil {
		return nil, err
	}
	if out, err = v.longs(); err != nil {
		return nil, err
	}
	n.Inlinks = toUint64(in)
	n.Outlinks = toUint64(out)
	if v.off != len(blob) {
		return nil, fmt.Errorf("graph: node %d: %d trailing bytes", id, len(blob)-v.off)
	}
	return n, nil
}

func toUint64(in []int64) []uint64 {
	if in == nil {
		return nil
	}
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = uint64(v)
	}
	return out
}

// view is a tiny sequential blob reader.
type view struct {
	b   []byte
	off int
}

func (v *view) long() (int64, error) {
	if v.off+8 > len(v.b) {
		return 0, cell.ErrShortBlob
	}
	x := int64(binary.LittleEndian.Uint64(v.b[v.off:]))
	v.off += 8
	return x, nil
}

func (v *view) str() (string, error) {
	if v.off+4 > len(v.b) {
		return "", cell.ErrShortBlob
	}
	n := int(binary.LittleEndian.Uint32(v.b[v.off:]))
	v.off += 4
	if v.off+n > len(v.b) {
		return "", cell.ErrShortBlob
	}
	s := string(v.b[v.off : v.off+n])
	v.off += n
	return s, nil
}

func (v *view) longs() ([]int64, error) {
	if v.off+4 > len(v.b) {
		return nil, cell.ErrShortBlob
	}
	n := int(binary.LittleEndian.Uint32(v.b[v.off:]))
	v.off += 4
	if v.off+8*n > len(v.b) {
		return nil, cell.ErrShortBlob
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(v.b[v.off:]))
		v.off += 8
	}
	return out, nil
}

// blob field offsets that are cheap to compute without a full decode; the
// hot traversal paths use these to reach the link lists with zero copies.

// blobLabel reads the label without decoding the rest.
func blobLabel(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}

// blobListAt returns (offset, count) of the idx-th List<long> among
// {Weights=0, Inlinks=1, Outlinks=2}.
func blobListAt(b []byte, idx int) (int, int, error) {
	off := 8 // Label
	if off+4 > len(b) {
		return 0, 0, cell.ErrShortBlob
	}
	off += 4 + int(binary.LittleEndian.Uint32(b[off:])) // Name
	for i := 0; ; i++ {
		if off+4 > len(b) {
			return 0, 0, cell.ErrShortBlob
		}
		count := int(binary.LittleEndian.Uint32(b[off:]))
		if i == idx {
			if off+4+8*count > len(b) {
				return 0, 0, cell.ErrShortBlob
			}
			return off + 4, count, nil
		}
		off += 4 + 8*count
	}
}

// forEachListEntry iterates the idx-th list in a node blob zero-copy.
func forEachListEntry(b []byte, idx int, fn func(v uint64) bool) error {
	off, count, err := blobListAt(b, idx)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		if !fn(binary.LittleEndian.Uint64(b[off+8*i:])) {
			return nil
		}
	}
	return nil
}

const (
	listWeights = iota
	listInlinks
	listOutlinks
)

// AppendNodeLists appends a node blob's in-links and out-links to the
// given slices and returns the extended slices plus the label. It is the
// bulk zero-intermediate-allocation decode the partition-view builder
// (internal/graph/view) uses to fill its CSR arenas: one bounds check per
// list, then straight copies. A malformed blob (truncated header, list
// count overrunning the blob) returns an error with the input slices
// unchanged in content up to their original lengths.
func AppendNodeLists(blob []byte, in, out []uint64) (int64, []uint64, []uint64, error) {
	if len(blob) < 8 {
		return 0, in, out, fmt.Errorf("graph: short node blob (%d bytes)", len(blob))
	}
	label := blobLabel(blob)
	iOff, iCount, err := blobListAt(blob, listInlinks)
	if err != nil {
		return 0, in, out, err
	}
	oOff, oCount, err := blobListAt(blob, listOutlinks)
	if err != nil {
		return 0, in, out, err
	}
	for i := 0; i < iCount; i++ {
		in = append(in, binary.LittleEndian.Uint64(blob[iOff+8*i:]))
	}
	for i := 0; i < oCount; i++ {
		out = append(out, binary.LittleEndian.Uint64(blob[oOff+8*i:]))
	}
	return label, in, out, nil
}
