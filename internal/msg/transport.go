// Package msg implements Trinity's message passing framework (paper §2,
// §4.2): an efficient, one-sided, machine-to-machine messaging layer with
// synchronous request-response protocols, asynchronous fire-and-forget
// protocols, and transparent packing of small asynchronous messages into
// large transfers.
//
// "One-sided" means a sender needs no prior appointment with the receiver:
// a registered handler runs on the receiving machine as soon as a message
// arrives, with no matching receive call — the property the paper credits
// for making fine-grained parallelism on graphs possible (§8).
//
// Two transports are provided: an in-process channel transport (Bus) used
// by the simulated cluster, and a TCP transport (length-prefixed frames
// over loopback or a real network). The protocol layer (Node) is transport
// agnostic.
package msg

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"trinity/internal/buf"
)

// MachineID identifies a machine in the cluster.
type MachineID int

// Errors returned by the messaging layer.
var (
	// ErrUnreachable reports that the destination machine is down or
	// disconnected. The cluster layer treats this as a failure signal.
	ErrUnreachable = errors.New("msg: machine unreachable")
	// ErrClosed reports that the local endpoint has been closed.
	ErrClosed = errors.New("msg: endpoint closed")
	// ErrNoHandler reports that the destination has no handler registered
	// for the protocol.
	ErrNoHandler = errors.New("msg: no handler for protocol")
	// ErrTimeout reports that a synchronous call timed out.
	ErrTimeout = errors.New("msg: call timed out")
	// ErrFrameTooLarge reports that a frame exceeds the transport's
	// MaxFrameSize: outbound, the send is refused locally; a remote
	// handler's oversized reply comes back as this error via a one-byte
	// wire error code (CodeFrameTooLarge).
	ErrFrameTooLarge = errors.New("msg: frame exceeds MaxFrameSize")
)

// Transport moves opaque frames between machines. Implementations must be
// safe for concurrent use. The receiver callback is invoked from transport
// goroutines; it must not block indefinitely.
//
// Frame ownership contract (both directions). Frames are buf.Leases and
// ownership moves by reference transfer, never by defensive copy:
//
//   - Send consumes exactly one reference to the frame, in every outcome:
//     on success the reference is settled once the frame is on the wire
//     (or queued for in-process delivery), on error it is released before
//     Send returns. A caller that wants to keep the frame after Send must
//     Retain it first (the chaos transport does, to duplicate frames).
//   - Receive: the receiver callback is handed one reference it now owns
//     and must settle — by releasing it when dispatch is done, or by
//     handing it to a longer-lived owner (the Node gives a sync request's
//     lease to the handler goroutine, and a sync reply's lease to the
//     waiting caller). The bytes are immutable while any reference is
//     live: duplicated frames may be delivered twice sharing one backing
//     array. The chaos transport's PoisonFrames mode scribbles over every
//     frame at its final release, precisely to flush out aliases that
//     outlive their reference.
//
// Ordering: frames between one (sender, receiver) pair are delivered in
// Send-call order. Transports promise nothing about frames whose Send
// calls overlap — sequencing concurrent sends is the protocol layer's
// job (Node holds a per-destination lock across Send).
type Transport interface {
	// Local returns this endpoint's machine ID.
	Local() MachineID
	// Send delivers a frame to the destination machine, consuming one
	// reference to it. It returns ErrUnreachable if the destination is
	// down.
	Send(to MachineID, frame *buf.Lease) error
	// SetReceiver installs the frame handler. Must be called before the
	// first Send to this endpoint. The handler owns one reference to
	// every frame it is given.
	SetReceiver(fn func(from MachineID, frame *buf.Lease))
	// Close shuts the endpoint down; subsequent Sends to it fail with
	// ErrUnreachable.
	Close() error
}

// Bus is an in-process transport hub: a simulated network connecting any
// number of endpoints. Frames are delivered in order per (sender,
// receiver) pair by a dedicated delivery goroutine per endpoint.
type Bus struct {
	mu        sync.RWMutex
	endpoints map[MachineID]*busEndpoint
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{endpoints: make(map[MachineID]*busEndpoint)}
}

type busFrame struct {
	from  MachineID
	frame *buf.Lease
}

type busEndpoint struct {
	bus *Bus
	id  MachineID

	// recv is read by the delivery goroutine on every frame and must not
	// require ep.mu: a sender blocked on a full queue holds ep.mu, and
	// taking it here would deadlock the very goroutine that drains the
	// queue.
	recv atomic.Pointer[func(MachineID, *buf.Lease)]

	mu     sync.Mutex
	queue  chan busFrame
	closed bool
}

// Endpoint creates (or returns the existing) endpoint for the machine.
func (b *Bus) Endpoint(id MachineID) Transport {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ep, ok := b.endpoints[id]; ok {
		return ep
	}
	ep := &busEndpoint{
		bus:   b,
		id:    id,
		queue: make(chan busFrame, 1024),
	}
	b.endpoints[id] = ep
	go ep.deliver()
	return ep
}

// Disconnect simulates a machine crash: its endpoint is closed and all
// future sends to it fail with ErrUnreachable.
func (b *Bus) Disconnect(id MachineID) {
	b.mu.Lock()
	ep, ok := b.endpoints[id]
	if ok {
		delete(b.endpoints, id)
	}
	b.mu.Unlock()
	if ok {
		ep.shutdown()
	}
}

func (ep *busEndpoint) deliver() {
	// Ranging over the closed queue drains frames enqueued before
	// shutdown, so every queued lease is settled exactly once: by the
	// receiver if one is installed, here otherwise.
	for f := range ep.queue {
		if recv := ep.recv.Load(); recv != nil {
			(*recv)(f.from, f.frame)
		} else {
			f.frame.Release()
		}
	}
}

func (ep *busEndpoint) Local() MachineID { return ep.id }

func (ep *busEndpoint) SetReceiver(fn func(MachineID, *buf.Lease)) {
	ep.recv.Store(&fn)
}

func (ep *busEndpoint) Send(to MachineID, frame *buf.Lease) error {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		frame.Release()
		return ErrClosed
	}
	ep.bus.mu.RLock()
	dst, ok := ep.bus.endpoints[to]
	ep.bus.mu.RUnlock()
	if !ok {
		frame.Release()
		return fmt.Errorf("%w: machine %d", ErrUnreachable, to)
	}
	// No copy: the sender's reference transfers to the queue and from
	// there to the receiver callback. This is the in-process analogue of
	// zero-copy DMA — the bytes written by the sender are the bytes the
	// receiver decodes.
	dst.mu.Lock()
	if dst.closed {
		dst.mu.Unlock()
		frame.Release()
		return fmt.Errorf("%w: machine %d", ErrUnreachable, to)
	}
	dst.queue <- busFrame{from: ep.id, frame: frame}
	dst.mu.Unlock()
	return nil
}

func (ep *busEndpoint) Close() error {
	ep.bus.mu.Lock()
	if ep.bus.endpoints[ep.id] == ep {
		delete(ep.bus.endpoints, ep.id)
	}
	ep.bus.mu.Unlock()
	ep.shutdown()
	return nil
}

func (ep *busEndpoint) shutdown() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.queue)
	}
}
