package msg

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/buf"
	"trinity/internal/obs"
)

// ProtocolID identifies a message protocol, as declared in a TSL
// `protocol` block and assigned by the TSL compiler.
type ProtocolID uint16

// SyncHandler serves a synchronous (request-response) protocol. The
// returned bytes are sent back to the caller; a non-nil error is
// propagated to the caller as a call failure. ctx carries the caller's
// remaining deadline budget, decoded from the request frame: handlers
// that block (fan-out calls, trunk scans) should pass it downstream so
// the budget keeps shrinking across hops.
//
// request aliases the inbound frame's pooled lease, which is released
// (and its buffer recycled) after the reply is built: handlers must not
// retain request past returning. The returned response may alias request
// — it is copied into the reply frame before the lease is settled.
type SyncHandler func(ctx context.Context, from MachineID, request []byte) ([]byte, error)

// AsyncHandler serves an asynchronous (one-way) protocol. msg must not be
// retained after the handler returns. Async handlers run inline on the
// transport's delivery goroutine: they must not block indefinitely and
// must not Send, Flush or Call (enqueue work for another goroutine
// instead, as the BSP engine does). A Send may wait for a frame to the
// same destination that is inside the transport, and that frame may be
// waiting for this very delivery goroutine to drain its queue.
type AsyncHandler func(from MachineID, msg []byte)

// frame kinds on the wire. Every one-way message travels in a batch,
// of one message when BatchBytes is 1.
const (
	kindSyncReq  byte = 1
	kindSyncResp byte = 2
	kindSyncErr  byte = 3
	kindBatch    byte = 5
)

// wire header: kind(1) proto(2) corr(8); batch items: proto(2) len(4).
// Sync requests carry an extra budget(8) field after the common header:
// the caller's remaining deadline in relative microseconds (int64,
// little-endian). Relative because machine clocks are not synchronized;
// the receiver re-anchors it against its own clock on arrival. Zero
// means "no deadline"; a negative value is already expired and the
// receiver drops the request before dispatch.
const (
	frameHeader   = 11
	syncReqHeader = frameHeader + 8
	batchItem     = 6
)

// CodeFrameTooLarge is the reserved one-byte wire error code carried on a
// kindSyncErr frame when a handler's reply exceeded the transport's
// MaxFrameSize: the oversized reply itself cannot cross the wire, so the
// caller learns why through this small error frame instead of timing out.
// Application handlers must not use it with WithCode.
const CodeFrameTooLarge byte = 0xFF

// Stats counts messaging activity. The ratio MessagesSent/FramesSent shows
// the effect of message packing.
type Stats struct {
	MessagesSent  int64 // logical messages submitted
	FramesSent    int64 // physical frames on the transport
	BytesSent     int64
	SyncCalls     int64
	AsyncReceived int64
	BatchesRecv   int64
	DroppedFrames int64 // malformed or truncated frames discarded on receive
	NoHandler     int64 // async messages dead-lettered for want of a handler

	CallsCancelled    int64 // sync calls abandoned because the caller's context fired
	DeadlineDroppedRx int64 // requests dropped on arrival: caller's budget already spent
}

// RemoteError is a synchronous-call failure that crossed the wire. Code
// carries the one-byte application error code the remote handler attached
// with WithCode (0 if none), so callers can map their sentinel errors
// without matching on message text.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("msg: remote error: %s", e.Msg) }

// codedError tags an error with a wire code while leaving errors.Is/As
// matching against the wrapped error intact.
type codedError struct {
	code byte
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// WithCode tags err with a one-byte application error code that survives
// the wire: when a sync handler returns the tagged error, the caller's
// Call yields a *RemoteError carrying the same code. Code 0 is reserved
// for "no code".
func WithCode(code byte, err error) error {
	if err == nil {
		return nil
	}
	return &codedError{code: code, err: err}
}

// ErrorCode extracts the wire code from err or any error it wraps,
// returning 0 if none was attached.
func ErrorCode(err error) byte {
	for err != nil {
		switch e := err.(type) {
		case *codedError:
			return e.code
		case *RemoteError:
			return e.Code
		}
		err = errors.Unwrap(err)
	}
	return 0
}

// Options configures a Node.
type Options struct {
	// BatchBytes is the packing buffer size per destination: an async
	// batch is sent as soon as it holds this many bytes. Zero means
	// 64 KiB; 1 sends every message in its own frame, which is the §4.2
	// packing ablation.
	BatchBytes int
	// FlushInterval bounds how long a small async message can linger in
	// the packing buffer. Zero means 2ms. Negative disables the
	// background flusher (tests and BSP flush explicitly).
	FlushInterval time.Duration
	// CallTimeout bounds synchronous calls. Zero means 10s.
	CallTimeout time.Duration
	// Metrics is the registry the node publishes its counters to, under
	// the scope "msg.m<id>". Nil gives the node a private registry, which
	// keeps independently constructed nodes (tests, ad-hoc tools) isolated
	// from each other; a memory cloud passes its own registry so all of a
	// cluster's nodes land in one snapshot.
	Metrics *obs.Registry
}

// Node is a machine's messaging runtime: it owns a transport endpoint,
// dispatches incoming frames to registered protocol handlers, correlates
// synchronous responses, and packs small asynchronous messages.
type Node struct {
	tr   Transport
	opts Options

	mu    sync.RWMutex
	sync  map[ProtocolID]SyncHandler
	async map[ProtocolID]AsyncHandler

	nextCorr uint64
	callsMu  sync.Mutex
	calls    map[uint64]chan callResult

	// peers holds one record per destination. The map is copied on
	// write: a destination is added once, under addMu, and every frame
	// and flush afterwards reads the map without a lock.
	peers   atomic.Pointer[map[MachineID]*peer]
	addMu   sync.Mutex
	flushCh chan struct{}
	closed  atomic.Bool

	metrics nodeMetrics
}

// peer is everything the node keeps for one destination: the open
// packing batch, the dest.m<id>.* metrics, and the lock that orders the
// destination's frames. A frame takes its place in the order by taking
// mu, and mu is held across tr.Send; transports deliver per (sender,
// receiver) pair in Send-call order, so frames arrive in the order they
// took the lock. Without that, a goroutine that sealed a full batch
// inside Send could lose the race to a timer Flush carrying newer
// messages and push the older batch onto the transport second.
type peer struct {
	id MachineID
	mu sync.Mutex
	l  *buf.Lease // the open batch; nil between a flush and the next Send

	bytes      *obs.Counter
	frames     *obs.Counter
	queueBytes *obs.Gauge // bytes packed, not yet on the transport
}

// nodeMetrics are the node's registry-backed counters. The Stats()
// accessor reads these, so the pre-obs Stats struct stays available to
// existing tests and benchmark tables.
type nodeMetrics struct {
	scope         *obs.Scope
	messagesSent  *obs.Counter
	framesSent    *obs.Counter
	bytesSent     *obs.Counter
	syncCalls     *obs.Counter
	asyncReceived *obs.Counter
	batchesRecv   *obs.Counter
	droppedFrames *obs.Counter
	noHandler     *obs.Counter
	callNs        *obs.Histogram

	callsCancelled    *obs.Counter
	deadlineDroppedRx *obs.Counter
}

// callResult carries a parked sync reply. On success, payload aliases
// lease, whose one reference travels with the result: whoever takes the
// result out of the channel (the waiting Call, or the cleanup drain when
// the caller gave up) owes the Release.
type callResult struct {
	lease   *buf.Lease
	payload []byte
	err     error
}

// NewNode creates a messaging runtime on the given transport endpoint and
// installs itself as the endpoint's receiver.
func NewNode(tr Transport, opts Options) *Node {
	if opts.BatchBytes <= 0 {
		opts.BatchBytes = 64 << 10
	}
	if opts.FlushInterval == 0 {
		opts.FlushInterval = 2 * time.Millisecond
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 10 * time.Second
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	scope := reg.Scope(fmt.Sprintf("msg.m%d", tr.Local()))
	n := &Node{
		tr:      tr,
		opts:    opts,
		sync:    make(map[ProtocolID]SyncHandler),
		async:   make(map[ProtocolID]AsyncHandler),
		calls:   make(map[uint64]chan callResult),
		flushCh: make(chan struct{}),
		metrics: nodeMetrics{
			scope:         scope,
			messagesSent:  scope.Counter("messages_sent"),
			framesSent:    scope.Counter("frames_sent"),
			bytesSent:     scope.Counter("bytes_sent"),
			syncCalls:     scope.Counter("sync_calls"),
			asyncReceived: scope.Counter("async_received"),
			batchesRecv:   scope.Counter("batches_recv"),
			droppedFrames: scope.Counter("dropped_frames"),
			noHandler:     scope.Counter("no_handler"),
			callNs:        scope.Histogram("call_ns"),

			callsCancelled:    scope.Counter("calls_cancelled"),
			deadlineDroppedRx: scope.Counter("deadline_dropped_rx"),
		},
	}
	n.peers.Store(&map[MachineID]*peer{})
	tr.SetReceiver(n.receive)
	if opts.FlushInterval > 0 {
		go n.flushLoop()
	}
	return n
}

// ID returns the local machine ID.
func (n *Node) ID() MachineID { return n.tr.Local() }

// Stats returns a snapshot of the node's counters.
//
//reach:test-seam giraph's packing-ablation test and msg's own tests read frame, drop and cancellation counts off one node
func (n *Node) Stats() Stats {
	return Stats{
		MessagesSent:  n.metrics.messagesSent.Load(),
		FramesSent:    n.metrics.framesSent.Load(),
		BytesSent:     n.metrics.bytesSent.Load(),
		SyncCalls:     n.metrics.syncCalls.Load(),
		AsyncReceived: n.metrics.asyncReceived.Load(),
		BatchesRecv:   n.metrics.batchesRecv.Load(),
		DroppedFrames: n.metrics.droppedFrames.Load(),
		NoHandler:     n.metrics.noHandler.Load(),

		CallsCancelled:    n.metrics.callsCancelled.Load(),
		DeadlineDroppedRx: n.metrics.deadlineDroppedRx.Load(),
	}
}

// peer returns the record for machine to, adding it on first use with
// its metrics named msg.m<self>.dest.m<to>.*.
func (n *Node) peer(to MachineID) *peer {
	if pr := (*n.peers.Load())[to]; pr != nil {
		return pr
	}
	n.addMu.Lock()
	defer n.addMu.Unlock()
	old := *n.peers.Load()
	if pr := old[to]; pr != nil {
		return pr
	}
	scope := n.metrics.scope.Scope(fmt.Sprintf("dest.m%d", to))
	pr := &peer{
		id:         to,
		bytes:      scope.Counter("bytes"),
		frames:     scope.Counter("frames"),
		queueBytes: scope.Gauge("queue_bytes"),
	}
	peers := make(map[MachineID]*peer, len(old)+1)
	for id, p := range old {
		peers[id] = p
	}
	peers[to] = pr
	n.peers.Store(&peers)
	return pr
}

// HandleSync registers the handler for a synchronous protocol. Protocols
// must be registered before any peer calls them.
func (n *Node) HandleSync(p ProtocolID, h SyncHandler) {
	n.mu.Lock()
	n.sync[p] = h
	n.mu.Unlock()
}

// HandleAsync registers the handler for an asynchronous protocol.
func (n *Node) HandleAsync(p ProtocolID, h AsyncHandler) {
	n.mu.Lock()
	n.async[p] = h
	n.mu.Unlock()
}

// Call performs a synchronous request-response exchange, like invoking a
// local method on a remote machine (the TSL "Syn" protocol type). The
// caller's remaining budget — min(ctx deadline, CallTimeout), expressed
// in relative microseconds because peer clocks are not synchronized — is
// encoded into the request frame so the receiver can drop the request if
// it arrives already expired and hand the handler a context carrying
// what is left. Cancelling ctx abandons the wait immediately: the reply,
// if it ever arrives, is discarded by the correlation table.
func (n *Node) Call(ctx context.Context, to MachineID, p ProtocolID, request []byte) ([]byte, error) {
	lease, payload, err := n.CallLease(ctx, to, p, request)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), payload...)
	lease.Release()
	return out, nil
}

// CallLease is Call without the final copy: on success the response
// payload aliases the reply frame's pooled lease, which the caller owns
// and must Release once done decoding (hot readers like the multi-get
// pipeline decode in place and release when their futures resolve). On
// error the lease is already settled and must not be touched.
func (n *Node) CallLease(ctx context.Context, to MachineID, p ProtocolID, request []byte) (*buf.Lease, []byte, error) {
	if n.closed.Load() {
		return nil, nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		n.metrics.callsCancelled.Inc()
		return nil, nil, err
	}
	// The wire budget is the caller's deadline capped by CallTimeout: a
	// context with no deadline still must not pin the remote handler (or
	// this wait) forever. Zero on the wire means "no deadline", so the
	// clamp to 1µs keeps a just-expiring budget distinguishable.
	budget := n.opts.CallTimeout
	if d, ok := ctx.Deadline(); ok {
		if until := time.Until(d); until < budget {
			budget = until
		}
	}
	if budget <= 0 {
		budget = time.Microsecond
	}
	corr := atomic.AddUint64(&n.nextCorr, 1)
	ch := make(chan callResult, 1)
	n.callsMu.Lock()
	n.calls[corr] = ch
	n.callsMu.Unlock()
	defer func() {
		n.callsMu.Lock()
		delete(n.calls, corr)
		n.callsMu.Unlock()
		// Settle any reply this call will never look at: a late reply
		// parked just before the delete, or a chaos duplicate parked
		// after the first was consumed. Parking happens under callsMu,
		// so after the delete nothing new can land here.
		select {
		case res := <-ch:
			if res.lease != nil {
				res.lease.Release()
			}
		default:
		}
	}()

	fl := buf.Get(syncReqHeader + len(request))
	frame := fl.Bytes()
	frame[0] = kindSyncReq
	binary.LittleEndian.PutUint16(frame[1:], uint16(p))
	binary.LittleEndian.PutUint64(frame[3:], corr)
	binary.LittleEndian.PutUint64(frame[frameHeader:], uint64(budget.Microseconds()))
	copy(frame[syncReqHeader:], request)
	n.metrics.syncCalls.Inc()
	n.metrics.messagesSent.Inc()
	start := time.Now()
	if err := n.sendFrame(to, fl); err != nil {
		return nil, nil, err
	}
	// time.NewTimer + Stop, not time.After: the After timer would survive
	// until the full CallTimeout even after the reply arrived, leaking one
	// live timer per call at high call rates (BenchmarkCallTimerChurn
	// guards this). The timer covers only the CallTimeout cap; the
	// caller's own (possibly earlier) deadline fires through ctx.Done and
	// surfaces as ctx.Err, keeping the two failure modes distinguishable.
	timer := time.NewTimer(n.opts.CallTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		n.metrics.callNs.Observe(int64(time.Since(start)))
		return res.lease, res.payload, res.err
	case <-ctx.Done():
		n.metrics.callsCancelled.Inc()
		n.metrics.callNs.Observe(int64(time.Since(start)))
		return nil, nil, ctx.Err()
	case <-timer.C:
		n.metrics.callNs.Observe(int64(time.Since(start)))
		return nil, nil, fmt.Errorf("%w: protocol %d to machine %d", ErrTimeout, p, to)
	}
}

// Send submits an asynchronous one-way message. Small messages to the same
// destination are packed into a single transfer; call Flush to force
// delivery (BSP supersteps flush at the end of every step). The message
// that fills the batch sends it, in order behind every earlier frame to
// the destination.
func (n *Node) Send(to MachineID, p ProtocolID, msg []byte) error {
	if n.closed.Load() {
		return ErrClosed
	}
	n.metrics.messagesSent.Inc()
	pr := n.peer(to)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.l == nil {
		// The batch buffer is a pooled lease sized to BatchBytes up
		// front: in steady state the same backing arrays cycle between
		// peer and pool, so reserving the full batch costs nothing and
		// spares the append-growth copy chain of a small initial buffer.
		pr.l = buf.Sized(1, n.opts.BatchBytes)
		pr.l.Bytes()[0] = kindBatch
	}
	var item [batchItem]byte
	binary.LittleEndian.PutUint16(item[0:], uint16(p))
	binary.LittleEndian.PutUint32(item[2:], uint32(len(msg)))
	pr.l = pr.l.Append(item[:], msg)
	if pr.l.Len() < n.opts.BatchBytes {
		pr.queueBytes.Set(int64(pr.l.Len()))
		return nil
	}
	return n.flushLocked(pr)
}

// Flush forces out all pending packed messages. It returns the first send
// error encountered, if any. A flush with nothing pending (the background
// flusher's idle tick) allocates nothing.
func (n *Node) Flush() error {
	var firstErr error
	for _, pr := range *n.peers.Load() {
		pr.mu.Lock()
		err := n.flushLocked(pr)
		pr.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// flushLocked ships the peer's open batch, if any. pr.mu is held.
func (n *Node) flushLocked(pr *peer) error {
	if pr.l == nil {
		return nil
	}
	fl := pr.l
	pr.l = nil
	pr.queueBytes.Set(0)
	return n.shipLocked(pr, fl)
}

func (n *Node) flushLoop() {
	ticker := time.NewTicker(n.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-n.flushCh:
			return
		case <-ticker.C:
			n.Flush()
		}
	}
}

// Close flushes pending messages and shuts the node down.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	if n.opts.FlushInterval > 0 {
		close(n.flushCh)
	}
	n.Flush()
	return n.tr.Close()
}

// sendFrame ships one frame in its place in the destination's order.
// Like Transport.Send, it consumes one reference to the frame in every
// outcome.
func (n *Node) sendFrame(to MachineID, frame *buf.Lease) error {
	pr := n.peer(to)
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return n.shipLocked(pr, frame)
}

// shipLocked counts the frame and hands it to the transport. pr.mu is
// held, which orders the frame behind every earlier one to the peer. The
// frame's length is read before Send: afterwards the lease may already
// be recycled.
func (n *Node) shipLocked(pr *peer, frame *buf.Lease) error {
	size := int64(frame.Len())
	n.metrics.framesSent.Inc()
	n.metrics.bytesSent.Add(size)
	pr.frames.Inc()
	pr.bytes.Add(size)
	return n.tr.Send(pr.id, frame)
}

// receive dispatches one incoming frame. It runs on the transport's
// delivery goroutine; sync handlers are dispatched to fresh goroutines so
// a slow handler cannot stall the pipe, while async messages within a
// batch run in order (the BSP engine relies on per-sender ordering).
//
// Frame ownership: receive owns one reference to fl (the Transport
// receiver contract) and settles it without copying the payload — a sync
// request's reference transfers to the serveSync goroutine, a sync
// reply's travels with the parked callResult to the waiting caller, and
// batch frames are released here after their in-order inline
// dispatch (covered by the AsyncHandler no-retain contract).
func (n *Node) receive(from MachineID, fl *buf.Lease) {
	frame := fl.Bytes()
	if len(frame) == 0 {
		n.metrics.droppedFrames.Inc()
		fl.Release()
		return
	}
	switch frame[0] {
	case kindSyncReq:
		if len(frame) < syncReqHeader {
			n.metrics.droppedFrames.Inc()
			fl.Release()
			return
		}
		p := ProtocolID(binary.LittleEndian.Uint16(frame[1:]))
		corr := binary.LittleEndian.Uint64(frame[3:])
		// Re-anchor the relative budget against the local clock at the
		// moment of arrival. A non-positive budget means the caller's
		// deadline was spent in transit (or before send, for hand-crafted
		// frames): drop before dispatch, visibly. No error reply is owed —
		// the caller's own context expires at the same moment.
		budget := int64(binary.LittleEndian.Uint64(frame[frameHeader:]))
		var deadline time.Time
		if budget != 0 {
			if budget < 0 {
				n.metrics.deadlineDroppedRx.Inc()
				fl.Release()
				return
			}
			deadline = time.Now().Add(time.Duration(budget) * time.Microsecond)
		}
		n.mu.RLock()
		h := n.sync[p]
		n.mu.RUnlock()
		// The request is served zero-copy: the handler reads the payload
		// straight out of the frame lease, whose reference now belongs to
		// the serveSync goroutine.
		go n.serveSync(from, p, corr, h, fl, deadline)
	case kindSyncResp, kindSyncErr:
		if len(frame) < frameHeader {
			n.metrics.droppedFrames.Inc()
			fl.Release()
			return
		}
		corr := binary.LittleEndian.Uint64(frame[3:])
		res := callResult{}
		retain := false
		if frame[0] == kindSyncErr {
			body := frame[frameHeader:]
			re := &RemoteError{}
			if len(body) >= 1 {
				re.Code = body[0]
				re.Msg = string(body[1:])
			}
			if re.Code == CodeFrameTooLarge {
				// The remote handler produced a reply its transport
				// refused to ship; surface the sentinel so callers can
				// errors.Is it.
				res.err = fmt.Errorf("%w: remote reply: %s", ErrFrameTooLarge, re.Msg)
			} else {
				res.err = re
			}
		} else {
			res.lease = fl
			res.payload = frame[frameHeader:]
			retain = true
		}
		// Park under callsMu: CallLease deletes the correlation entry
		// under the same lock before draining the channel, so a result
		// parked here is either consumed by the caller or swept by its
		// cleanup drain — never stranded holding a lease.
		delivered := false
		n.callsMu.Lock()
		if ch := n.calls[corr]; ch != nil {
			select {
			case ch <- res:
				delivered = true
			default: // duplicate reply; the first one won
			}
		}
		n.callsMu.Unlock()
		if !retain || !delivered {
			fl.Release()
		}
	case kindBatch:
		n.metrics.batchesRecv.Inc()
		body := frame[1:]
		for len(body) >= batchItem {
			p := ProtocolID(binary.LittleEndian.Uint16(body[0:]))
			size := int(binary.LittleEndian.Uint32(body[2:]))
			body = body[batchItem:]
			if size > len(body) {
				// Malformed tail: account for it so chaos runs and
				// production can tell "corrupted in transit" from
				// "never sent".
				n.metrics.droppedFrames.Inc()
				fl.Release()
				return
			}
			n.dispatchAsync(from, p, body[:size])
			body = body[size:]
		}
		fl.Release()
	default:
		n.metrics.droppedFrames.Inc()
		fl.Release()
	}
}

// serveSync runs one sync handler and ships the reply. It owns the
// request frame's lease: the handler reads the request in place, the
// response is encoded into a fresh lease (the handler may return slices
// aliasing the request, so the copy happens before the request lease is
// settled by the deferred Release).
func (n *Node) serveSync(from MachineID, p ProtocolID, corr uint64, h SyncHandler, fl *buf.Lease, deadline time.Time) {
	defer fl.Release()
	req := fl.Bytes()[syncReqHeader:]
	ctx := context.Background()
	if !deadline.IsZero() {
		// Second expiry check at dispatch time: goroutine scheduling under
		// load can burn the tail of a small budget between receive and
		// here. Counted the same as an on-arrival drop.
		if !time.Now().Before(deadline) {
			n.metrics.deadlineDroppedRx.Inc()
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	var resp []byte
	var err error
	if h == nil {
		err = fmt.Errorf("%w: %d", ErrNoHandler, p)
	} else {
		resp, err = h(ctx, from, req)
	}
	kind := kindSyncResp
	if err != nil {
		kind = kindSyncErr
		// Error frames carry [code][message]: the code (0 if the handler
		// attached none via WithCode) lets the caller map sentinel errors
		// without substring-matching the message.
		resp = append([]byte{ErrorCode(err)}, err.Error()...)
	}
	out := buf.Get(frameHeader + len(resp))
	ob := out.Bytes()
	ob[0] = kind
	binary.LittleEndian.PutUint16(ob[1:], uint16(p))
	binary.LittleEndian.PutUint64(ob[3:], corr)
	copy(ob[frameHeader:], resp)
	// Best effort: if the caller's machine died, the reply is dropped and
	// the caller times out.
	if err := n.sendFrame(from, out); errors.Is(err, ErrFrameTooLarge) && kind == kindSyncResp {
		// The reply exceeded the transport's frame bound. A silent drop
		// would cost the caller its full timeout; a one-byte wire error
		// (CodeFrameTooLarge) tells it why immediately.
		emsg := err.Error()
		efl := buf.Get(frameHeader + 1 + len(emsg))
		eb := efl.Bytes()
		eb[0] = kindSyncErr
		binary.LittleEndian.PutUint16(eb[1:], uint16(p))
		binary.LittleEndian.PutUint64(eb[3:], corr)
		eb[frameHeader] = CodeFrameTooLarge
		copy(eb[frameHeader+1:], emsg)
		_ = n.sendFrame(from, efl)
	}
}

func (n *Node) dispatchAsync(from MachineID, p ProtocolID, msg []byte) {
	n.mu.RLock()
	h := n.async[p]
	n.mu.RUnlock()
	if h == nil {
		// Dead-letter: the message is dropped, but visibly.
		n.metrics.noHandler.Inc()
		return
	}
	n.metrics.asyncReceived.Inc()
	h(from, msg)
}
