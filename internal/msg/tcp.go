package msg

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"trinity/internal/buf"
	"trinity/internal/obs"
)

// DefaultMaxFrameSize bounds a single frame on the wire (16 MiB). The
// inbound length prefix is attacker-controlled: without a bound, one
// corrupt or hostile peer could make the receiver allocate an
// arbitrary-size buffer per frame. Oversized inbound frames are drained
// and discarded (counted on the oversize_frames counter, connection kept);
// oversized outbound frames are refused with ErrFrameTooLarge before
// touching the socket.
const DefaultMaxFrameSize = 16 << 20

// TCPTransport is a Transport over real TCP sockets. Frames are
// length-prefixed (4-byte little-endian length, 4-byte sender ID, body).
// Connections to peers are dialed lazily and kept open; a failed dial or a
// broken pipe surfaces as ErrUnreachable, exactly like the in-process bus,
// so the cluster layer's failure detection works unchanged over both.
type TCPTransport struct {
	id       MachineID
	listener net.Listener
	oversize *obs.Counter

	mu      sync.Mutex
	peers   map[MachineID]string // machine -> address
	conns   map[MachineID]net.Conn
	inbound map[net.Conn]bool
	recv    func(MachineID, *buf.Lease)
	done    bool
	wg      sync.WaitGroup
}

// NewTCPTransport starts listening on addr ("" or "127.0.0.1:0" for an
// ephemeral loopback port). Frames in both directions are bounded by
// DefaultMaxFrameSize. Peer addresses are registered with AddPeer; use
// Addr to learn the bound address.
func NewTCPTransport(id MachineID, addr string) (*TCPTransport, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: listen: %w", err)
	}
	t := &TCPTransport{
		id:       id,
		listener: l,
		// A private registry: no cloud runs over TCP yet, so there is no
		// shared one to join.
		oversize: obs.NewRegistry().Scope(fmt.Sprintf("msg.m%d.tcp", id)).Counter("oversize_frames"),
		peers:    make(map[MachineID]string),
		conns:    make(map[MachineID]net.Conn),
		inbound:  make(map[net.Conn]bool),
	}
	t.wg.Add(1)
	go t.accept()
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *TCPTransport) Addr() string { return t.listener.Addr().String() }

// AddPeer registers the address of another machine.
func (t *TCPTransport) AddPeer(id MachineID, addr string) {
	t.mu.Lock()
	t.peers[id] = addr
	t.mu.Unlock()
}

// Local implements Transport.
func (t *TCPTransport) Local() MachineID { return t.id }

// SetReceiver implements Transport.
func (t *TCPTransport) SetReceiver(fn func(MachineID, *buf.Lease)) {
	t.mu.Lock()
	t.recv = fn
	t.mu.Unlock()
}

func (t *TCPTransport) accept() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.read(conn)
	}
}

func (t *TCPTransport) read(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(hdr[0:])
		from := MachineID(int32(binary.LittleEndian.Uint32(hdr[4:])))
		if size > DefaultMaxFrameSize {
			// The length prefix is untrusted input: drain the frame off
			// the stream (keeping the connection framed) and drop it,
			// visibly, instead of allocating whatever a corrupt or
			// hostile peer asked for.
			t.oversize.Inc()
			if _, err := io.CopyN(io.Discard, conn, int64(size)); err != nil {
				return
			}
			continue
		}
		// Each frame reads into its own pooled lease whose reference
		// transfers to the receiver — no per-connection buffer reuse, no
		// defensive copy downstream.
		frame := buf.Get(int(size))
		if _, err := io.ReadFull(conn, frame.Bytes()); err != nil {
			frame.Release()
			return
		}
		t.mu.Lock()
		recv := t.recv
		t.mu.Unlock()
		if recv != nil {
			recv(from, frame)
		} else {
			frame.Release()
		}
	}
}

// Send implements Transport, consuming one reference to frame in every
// outcome. Writes to one peer are serialized by the transport lock; the
// frame copy happens in the kernel.
func (t *TCPTransport) Send(to MachineID, frame *buf.Lease) error {
	defer frame.Release()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return ErrClosed
	}
	if uint32(frame.Len()) > DefaultMaxFrameSize {
		return fmt.Errorf("%w: %d bytes to machine %d (limit %d)", ErrFrameTooLarge, frame.Len(), to, DefaultMaxFrameSize)
	}
	conn, err := t.connLocked(to)
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(frame.Len()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(int32(t.id)))
	if _, err := conn.Write(hdr[:]); err == nil {
		_, err = conn.Write(frame.Bytes())
		if err == nil {
			return nil
		}
	}
	// Broken connection: drop it and report the peer unreachable.
	conn.Close()
	delete(t.conns, to)
	return fmt.Errorf("%w: machine %d", ErrUnreachable, to)
}

func (t *TCPTransport) connLocked(to MachineID) (net.Conn, error) {
	if c, ok := t.conns[to]; ok {
		return c, nil
	}
	addr, ok := t.peers[to]
	if !ok {
		return nil, fmt.Errorf("%w: machine %d has no registered address", ErrUnreachable, to)
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: machine %d: %v", ErrUnreachable, to, err)
	}
	t.conns[to] = c
	return c, nil
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return nil
	}
	t.done = true
	for _, c := range t.conns {
		c.Close()
	}
	t.conns = make(map[MachineID]net.Conn)
	for c := range t.inbound {
		c.Close() // unblocks the read goroutine
	}
	t.mu.Unlock()
	err := t.listener.Close()
	t.wg.Wait()
	return err
}
