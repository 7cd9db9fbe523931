// Package graph implements Trinity's graph model (paper §4.1) on top of
// the memory cloud: graph nodes are cells, edges are cell-ID lists inside
// node cells (SimpleEdge), and the topology lives in blobs, not runtime
// objects.
//
// The node cell is declared once, in TSL (node.tsl). node_gen.go is what
// cmd/tslc compiles it to: the GraphNode struct with its blob codec, and
// GraphNodeAccessor, which reads fields and link lists in place at
// offsets computed from the layout. The engine goes through both.
package graph

//go:generate go run ../../cmd/tslc -pkg graph -o node_gen.go node.tsl

import "fmt"

// Node is the decoded form of a node cell.
type Node struct {
	ID       uint64
	Label    int64
	Name     string
	Weights  []int64
	Inlinks  []uint64
	Outlinks []uint64
}

// EncodeNode serializes a node into the GraphNode blob layout. x is
// filled field by field: built from a composite literal it is copied once
// more, which EncodeNode's benchmark shows.
func EncodeNode(n *Node) []byte {
	var x GraphNode
	x.Label, x.Name, x.Weights, x.Inlinks, x.Outlinks = n.Label, n.Name, n.Weights, n.Inlinks, n.Outlinks
	return x.AppendTo(make([]byte, 0, x.Size()))
}

// DecodeNode parses a GraphNode blob.
func DecodeNode(id uint64, blob []byte) (*Node, error) {
	var x GraphNode
	if err := x.Unmarshal(blob); err != nil {
		return nil, fmt.Errorf("graph: node %d: %w", id, err)
	}
	return &Node{ID: id, Label: x.Label, Name: x.Name, Weights: x.Weights, Inlinks: x.Inlinks, Outlinks: x.Outlinks}, nil
}
