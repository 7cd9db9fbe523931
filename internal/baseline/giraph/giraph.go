// Package giraph implements a deliberately faithful stand-in for Apache
// Giraph, the Pregel implementation Trinity is compared against in
// Figure 12(d). The paper attributes Giraph's slowness and memory
// footprint to two design decisions, both reproduced here:
//
//   - graph vertices, edges, and messages live as individual runtime
//     objects on the managed heap ("in PBGL and Giraph, graph nodes exist
//     as runtime objects in memory; they take much more memory than
//     Trinity's plain blobs"), and message values are boxed;
//
//   - messages are serialized and delivered one wire frame per message
//     with a generic reflective encoder (gob), with no packing of small
//     messages into large transfers and no hub-vertex buffering.
//
// The engine is a correct synchronous Pregel: results match Trinity's BSP
// engine; only the resource profile differs. That is the point.
package giraph

import (
	"bytes"
	"encoding/gob"
	"sync"

	"trinity/internal/msg"
)

// Vertex is a heap-allocated runtime vertex object with a boxed value.
type Vertex struct {
	ID     uint64
	Value  any
	Edges  []*Edge // each edge is its own heap object, as on the JVM
	active bool
	halted bool
}

// Edge is a heap-allocated edge object.
type Edge struct {
	Target uint64
}

// Message is a boxed vertex message.
type Message struct {
	Target uint64
	Value  any
}

// Program is a Giraph-style vertex program.
type Program interface {
	// Compute processes one vertex for the current superstep. It may call
	// ctx.SendToAllEdges and ctx.VoteToHalt.
	Compute(ctx *Context, v *Vertex, msgs []any)
}

// Context exposes superstep operations to a vertex program.
type Context struct {
	w    *worker
	step int
}

// Superstep returns the current superstep.
func (c *Context) Superstep() int { return c.step }

// SendToAllEdges broadcasts to every out-edge, one message per edge.
func (c *Context) SendToAllEdges(v *Vertex, value any) {
	for _, e := range v.Edges {
		c.w.sendMessage(e.Target, value)
	}
}

// VoteToHalt deactivates the vertex until a message arrives.
func (c *Context) VoteToHalt(v *Vertex) { v.halted = true }

// Engine is the Giraph-style runtime: one worker per machine over a
// message bus configured WITHOUT packing.
type Engine struct {
	workers []*worker
	bus     *msg.Bus
}

type worker struct {
	e        *Engine
	id       msg.MachineID
	node     *msg.Node
	vertices map[uint64]*Vertex

	inMu  sync.Mutex
	inbox map[uint64][]any
	next  map[uint64][]any

	doneMu   sync.Mutex
	doneFrom map[msg.MachineID]bool
	doneCond *sync.Cond

	sent int64
}

// Protocol IDs local to the baseline.
const (
	protoMsg  msg.ProtocolID = 1
	protoDone msg.ProtocolID = 2
)

// New builds the engine over `machines` workers and loads the adjacency
// as runtime objects, partitioned by vertex id hash.
func New(machines int, adjacency map[uint64][]uint64) *Engine {
	e := &Engine{bus: msg.NewBus()}
	for i := 0; i < machines; i++ {
		node := msg.NewNode(e.bus.Endpoint(msg.MachineID(i)), msg.Options{
			BatchBytes: 1, // a frame per message: the packing ablation under test
		})
		w := &worker{
			e:        e,
			id:       msg.MachineID(i),
			node:     node,
			vertices: make(map[uint64]*Vertex),
			inbox:    make(map[uint64][]any),
			next:     make(map[uint64][]any),
			doneFrom: make(map[msg.MachineID]bool),
		}
		w.doneCond = sync.NewCond(&w.doneMu)
		node.HandleAsync(protoMsg, w.onMessage)
		node.HandleAsync(protoDone, w.onDone)
		e.workers = append(e.workers, w)
	}
	for id, targets := range adjacency {
		w := e.workers[e.ownerOf(id)]
		v := &Vertex{ID: id, active: true}
		for _, t := range targets {
			v.Edges = append(v.Edges, &Edge{Target: t})
		}
		w.vertices[id] = v
	}
	return e
}

// ownerOf hashes a vertex to a worker.
func (e *Engine) ownerOf(id uint64) int {
	// Same spread quality as Trinity's trunk hash, so partitioning is not
	// a confound in the comparison.
	h := id * 0x9e3779b97f4a7c15
	return int(h % uint64(len(e.workers)))
}

// Close shuts the engine down.
func (e *Engine) Close() {
	for _, w := range e.workers {
		w.node.Close()
	}
}

// Run executes the program until every vertex halts with no messages in
// flight, or maxSupersteps. Returns supersteps executed.
func (e *Engine) Run(p Program, maxSupersteps int) int {
	step := 0
	for ; step < maxSupersteps; step++ {
		active := e.superstep(p, step)
		if active == 0 {
			return step + 1
		}
	}
	return step
}

func (e *Engine) superstep(p Program, step int) int {
	// Rotate inboxes.
	for _, w := range e.workers {
		w.inMu.Lock()
		w.inbox, w.next = w.next, make(map[uint64][]any)
		w.inMu.Unlock()
	}
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ctx := &Context{w: w, step: step}
			for _, v := range w.vertices {
				msgs := w.inbox[v.ID]
				if v.halted && len(msgs) == 0 {
					continue
				}
				v.halted = false
				p.Compute(ctx, v, msgs)
			}
			w.node.Flush()
			for _, other := range w.e.workers {
				if other.id != w.id {
					w.node.Send(other.id, protoDone, nil)
				}
			}
			w.node.Flush()
		}(w)
	}
	wg.Wait()
	for _, w := range e.workers {
		w.waitForMarkers(len(e.workers) - 1)
	}
	active := 0
	for _, w := range e.workers {
		for _, v := range w.vertices {
			if !v.halted || len(w.next[v.ID]) > 0 {
				active++
			}
		}
	}
	return active
}

// sendMessage boxes, gob-encodes, and ships one message per call.
func (w *worker) sendMessage(target uint64, value any) {
	owner := w.e.workers[w.e.ownerOf(target)]
	if owner.id == w.id {
		w.deliver(target, value)
		return
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf) // fresh encoder per message, like
	// per-message serialization on the JVM
	if err := enc.Encode(Message{Target: target, Value: value}); err != nil {
		return
	}
	w.node.Send(owner.id, protoMsg, buf.Bytes())
}

func (w *worker) deliver(target uint64, value any) {
	w.inMu.Lock()
	w.next[target] = append(w.next[target], value)
	w.inMu.Unlock()
}

func (w *worker) onMessage(_ msg.MachineID, b []byte) {
	var m Message
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
		return
	}
	w.deliver(m.Target, m.Value)
}

func (w *worker) onDone(from msg.MachineID, _ []byte) {
	w.doneMu.Lock()
	w.doneFrom[from] = true
	w.doneCond.Broadcast()
	w.doneMu.Unlock()
}

func (w *worker) waitForMarkers(want int) {
	w.doneMu.Lock()
	for len(w.doneFrom) < want {
		w.doneCond.Wait()
	}
	w.doneFrom = make(map[msg.MachineID]bool)
	w.doneMu.Unlock()
}

// PageRank is the Giraph-style PageRank program used by Figure 12(d).
type PageRank struct {
	Iterations int
}

// Compute implements Program.
func (p *PageRank) Compute(ctx *Context, v *Vertex, msgs []any) {
	if ctx.Superstep() == 0 {
		v.Value = float64(1.0)
	} else {
		sum := 0.0
		for _, m := range msgs {
			sum += m.(float64) // unbox
		}
		v.Value = 0.15 + 0.85*sum
	}
	if ctx.Superstep() < p.Iterations {
		if n := len(v.Edges); n > 0 {
			ctx.SendToAllEdges(v, v.Value.(float64)/float64(n))
		}
	} else {
		ctx.VoteToHalt(v)
	}
}

func init() {
	gob.Register(float64(0))
}
