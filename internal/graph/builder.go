package graph

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"trinity/internal/memcloud"
)

// Builder accumulates a graph in memory and writes it to the cloud in one
// parallel pass through the batched multi-put path: nodes are partitioned
// by owner machine and applied in multi-put batches on each owner, so a
// load costs one amortized trunk-lock acquisition and one WAL group
// record per trunk per few hundred cells instead of one sync call and one
// WAL append per cell. Bulk loading this way is how the simulated cluster
// ingests the multi-million-edge benchmark graphs; the per-edge AddEdge
// path exists for dynamic updates. rdf.Builder loads through this same
// path. (Loaders that feed the cloud from a single access point use
// store.Writer instead, which ships the same batches over the wire
// asynchronously.)
//
// A Builder is not safe for concurrent use; build the edge list first,
// then Flush.
type Builder struct {
	directed bool
	nodes    map[uint64]*Node
}

// NewBuilder creates a builder. directed controls whether AddEdge also
// records an inlink (directed) or an outlink on both endpoints
// (undirected).
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed, nodes: make(map[uint64]*Node)}
}

// AddNode registers a node. Re-adding an existing ID updates its label
// and name but keeps accumulated edges.
func (b *Builder) AddNode(id uint64, label int64, name string) {
	if n, ok := b.nodes[id]; ok {
		n.Label = label
		n.Name = name
		return
	}
	b.nodes[id] = &Node{ID: id, Label: label, Name: name}
}

func (b *Builder) node(id uint64) *Node {
	n, ok := b.nodes[id]
	if !ok {
		n = &Node{ID: id}
		b.nodes[id] = n
	}
	return n
}

// AddEdge records the edge src -> dst, creating endpoints as needed.
func (b *Builder) AddEdge(src, dst uint64) {
	s := b.node(src)
	d := b.node(dst)
	s.Outlinks = append(s.Outlinks, dst)
	if b.directed {
		d.Inlinks = append(d.Inlinks, src)
	} else {
		d.Outlinks = append(d.Outlinks, src)
	}
}

// AddWeightedEdge records src -> dst with a weight parallel to Outlinks.
func (b *Builder) AddWeightedEdge(src, dst uint64, w int64) {
	s := b.node(src)
	d := b.node(dst)
	s.Outlinks = append(s.Outlinks, dst)
	s.Weights = append(s.Weights, w)
	if b.directed {
		d.Inlinks = append(d.Inlinks, src)
	} else {
		d.Outlinks = append(d.Outlinks, src)
		d.Weights = append(d.Weights, w)
	}
}

// NodeCount returns the number of accumulated nodes.
func (b *Builder) NodeCount() int { return len(b.nodes) }

// Flush writes all accumulated nodes into the graph's memory cloud in
// parallel (one worker per CPU, each applying its owner's nodes in local
// multi-put batches on that owner's slave) and clears the builder.
func (b *Builder) Flush(ctx context.Context, g *Graph) error {
	// Partition nodes by owner so every batch is a local trunk operation.
	perOwner := make([][]*Node, g.Machines())
	anchor := g.On(0).Slave()
	for _, n := range b.nodes {
		owner := int(anchor.Owner(n.ID))
		if owner < 0 || owner >= len(perOwner) {
			return fmt.Errorf("graph: node %d maps to unknown machine %d", n.ID, owner)
		}
		perOwner[owner] = append(perOwner[owner], n)
	}
	workers := runtime.NumCPU()
	if workers > g.Machines() {
		workers = g.Machines()
	}
	var wg sync.WaitGroup
	errCh := make(chan error, g.Machines())
	sem := make(chan struct{}, workers)
	for owner, nodes := range perOwner {
		if len(nodes) == 0 {
			continue
		}
		wg.Add(1)
		go func(owner int, nodes []*Node) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := flushOwner(ctx, g.On(owner).Slave(), nodes); err != nil {
				errCh <- fmt.Errorf("graph: flush nodes for machine %d: %w", owner, err)
			}
		}(owner, nodes)
	}
	wg.Wait()
	b.nodes = make(map[uint64]*Node)
	// The bulk writes above go through the slaves directly, so bump every
	// touched machine's partition epoch: cached partition views must not
	// survive a load.
	for owner, nodes := range perOwner {
		if len(nodes) > 0 {
			g.On(owner).InvalidatePartition()
		}
	}
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// flushBatch is how many node cells one multi-put batch carries during a
// bulk load: the pipeline's maximum batch size, reached immediately since
// the whole partition is known up front (no adaptive ramp needed).
const flushBatch = 512

// flushOwner streams one owner's nodes through the batched multi-put
// path: every flushBatch cells cost one amortized trunk-lock acquisition
// per trunk and one WAL group record, instead of one sync call and one
// WAL append per cell. The keys here are unique (one per node), so the
// store.Writer's per-key ordering machinery is unnecessary overhead;
// LocalMultiPut is called directly. A key whose trunk moved away mid-load
// (failover) answers WrongOwner and falls back to the re-routing Put.
func flushOwner(ctx context.Context, s *memcloud.Slave, nodes []*Node) error {
	items := make([]memcloud.MultiPutItem, 0, min(len(nodes), flushBatch))
	for start := 0; start < len(nodes); start += flushBatch {
		chunk := nodes[start:min(start+flushBatch, len(nodes))]
		items = items[:0]
		for _, n := range chunk {
			items = append(items, memcloud.MultiPutItem{Key: n.ID, Val: EncodeNode(n)})
		}
		for i, st := range s.LocalMultiPut(items) {
			if st == memcloud.MultiPutOK {
				continue
			}
			// The trunk moved (or the item was refused): one re-routed
			// synchronous Put answers both.
			if err := s.Put(ctx, items[i].Key, items[i].Val); err != nil {
				return fmt.Errorf("graph: flush node %d: %w", items[i].Key, err)
			}
		}
	}
	return nil
}

// Load is a convenience wrapper: build a graph engine over the cloud,
// flush the builder into it, and return the engine.
func (b *Builder) Load(ctx context.Context, cloud *memcloud.Cloud) (*Graph, error) {
	g := New(cloud, b.directed)
	if err := b.Flush(ctx, g); err != nil {
		return nil, err
	}
	return g, nil
}
