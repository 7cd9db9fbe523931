// Code generated by tslc from a Trinity Specification Language script. DO NOT EDIT.

package graph

import (
	"encoding/binary"
	"fmt"

	"trinity/internal/cell"
)

// GraphNode is a TSL cell struct: instances are stored as cells in the
// memory cloud.
type GraphNode struct {
	Label    int64
	Name     string
	Weights  []int64
	Inlinks  []uint64
	Outlinks []uint64
}

// Size returns the length of x's blob.
func (x *GraphNode) Size() int {
	return 24 + len(x.Name) + 8*len(x.Weights) + 8*len(x.Inlinks) + 8*len(x.Outlinks)
}

// AppendTo appends x's blob to b.
func (x *GraphNode) AppendTo(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(x.Label))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Name)))
	b = append(b, x.Name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Weights)))
	for _, e1 := range x.Weights {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Inlinks)))
	for _, e1 := range x.Inlinks {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(x.Outlinks)))
	for _, e1 := range x.Outlinks {
		b = binary.LittleEndian.AppendUint64(b, uint64(e1))
	}
	return b
}

// Unmarshal decodes a blob that holds exactly one GraphNode.
func (x *GraphNode) Unmarshal(b []byte) error {
	if n := skipGraphNode(b, 0); n < 0 {
		return cell.ErrShortBlob
	} else if n != len(b) {
		return fmt.Errorf("GraphNode: %d trailing bytes", len(b)-n)
	}
	GraphNodeAccessor{b}.get(x)
	return nil
}

// skipGraphNode returns the offset just past the GraphNode at b[o:], or -1 if
// b ends first.
func skipGraphNode(b []byte, o int) int {
	if o = cell.SkipList(b, o+8, 1); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o, 8); o < 0 {
		return -1
	}
	if o = cell.SkipList(b, o, 8); o < 0 {
		return -1
	}
	return cell.SkipList(b, o, 8)
}

// GraphNodeAccessor maps the fields of a GraphNode blob to their offsets: reads
// go to the blob in place, with no decode and no copy of lists.
type GraphNodeAccessor struct{ b []byte }

// NewGraphNodeAccessor checks that b starts with a whole GraphNode and maps it.
func NewGraphNodeAccessor(b []byte) (GraphNodeAccessor, error) {
	if skipGraphNode(b, 0) < 0 {
		return GraphNodeAccessor{}, cell.ErrShortBlob
	}
	return GraphNodeAccessor{b}, nil
}

func (a GraphNodeAccessor) offWeights() int {
	return 12 + int(binary.LittleEndian.Uint32(a.b[8:]))
}

func (a GraphNodeAccessor) offInlinks() int {
	o := a.offWeights()
	return o + 4 + 8*int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a GraphNodeAccessor) offOutlinks() int {
	o := a.offInlinks()
	return o + 4 + 8*int(binary.LittleEndian.Uint32(a.b[o:]))
}

func (a GraphNodeAccessor) get(x *GraphNode) {
	x.Label = a.Label()
	x.Name = a.Name()
	x.Weights = a.Weights().slice()
	x.Inlinks = a.Inlinks().slice()
	x.Outlinks = a.Outlinks().slice()
}

// Label reads the Label field.
func (a GraphNodeAccessor) Label() int64 {
	return int64(binary.LittleEndian.Uint64(a.b[0:]))
}

func (a GraphNodeAccessor) setLabel(v int64) {
	binary.LittleEndian.PutUint64(a.b[0:], uint64(v))
}

// Name reads the Name field (a copy: Go strings are immutable).
func (a GraphNodeAccessor) Name() string {
	return string(a.b[12 : 12+int(binary.LittleEndian.Uint32(a.b[8:]))])
}

// Weights maps the Weights field in place.
func (a GraphNodeAccessor) Weights() Int64List {
	o := a.offWeights()
	return readInt64List(a.b, o)
}

// locateGraphNodeWeights returns the offset of the Weights count in a whole GraphNode
// blob, for Slave.ListAppend.
func locateGraphNodeWeights(b []byte) (int, error) {
	if skipGraphNode(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return GraphNodeAccessor{b}.offWeights(), nil
}

// Inlinks maps the Inlinks field in place.
func (a GraphNodeAccessor) Inlinks() Uint64List {
	o := a.offInlinks()
	return readUint64List(a.b, o)
}

// locateGraphNodeInlinks returns the offset of the Inlinks count in a whole GraphNode
// blob, for Slave.ListAppend.
func locateGraphNodeInlinks(b []byte) (int, error) {
	if skipGraphNode(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return GraphNodeAccessor{b}.offInlinks(), nil
}

// Outlinks maps the Outlinks field in place.
func (a GraphNodeAccessor) Outlinks() Uint64List {
	o := a.offOutlinks()
	return readUint64List(a.b, o)
}

// locateGraphNodeOutlinks returns the offset of the Outlinks count in a whole GraphNode
// blob, for Slave.ListAppend.
func locateGraphNodeOutlinks(b []byte) (int, error) {
	if skipGraphNode(b, 0) < 0 {
		return 0, cell.ErrShortBlob
	}
	return GraphNodeAccessor{b}.offOutlinks(), nil
}

// Int64List reads a List<long> in place.
type Int64List struct {
	b []byte
	n int
}

func readInt64List(b []byte, o int) Int64List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Int64List{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l Int64List) Len() int { return l.n }

// At returns element i.
func (l Int64List) At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(l.b[8*i:]))
}

func (l Int64List) set(i int, v int64) {
	binary.LittleEndian.PutUint64(l.b[8*i:], uint64(v))
}

func (l Int64List) slice() []int64 {
	if l.n == 0 {
		return nil
	}
	s := make([]int64, l.n)
	for i := range s {
		s[i] = int64(binary.LittleEndian.Uint64(l.b[8*i:]))
	}
	return s
}

// Uint64List reads a List<long> in place.
type Uint64List struct {
	b []byte
	n int
}

func readUint64List(b []byte, o int) Uint64List {
	n := int(binary.LittleEndian.Uint32(b[o:]))
	return Uint64List{b[o+4 : o+4+8*n], n}
}

// Len returns the number of elements.
func (l Uint64List) Len() int { return l.n }

// At returns element i.
func (l Uint64List) At(i int) uint64 {
	return binary.LittleEndian.Uint64(l.b[8*i:])
}

func (l Uint64List) set(i int, v uint64) {
	binary.LittleEndian.PutUint64(l.b[8*i:], uint64(v))
}

func (l Uint64List) slice() []uint64 {
	if l.n == 0 {
		return nil
	}
	s := make([]uint64, l.n)
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(l.b[8*i:])
	}
	return s
}
