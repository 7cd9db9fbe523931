package msg

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trinity/internal/buf"
)

const protoOrdered ProtocolID = 0x0042

// OrderChecker asserts the ordering contract Node promises its users:
// async messages submitted to the same destination are delivered in
// submission order per sender machine (and per lane, for senders with
// several submitting goroutines). Senders stamp every message with
// StampSeq; the receiver installs Handler as the protocol's async
// handler. Any message whose (lane, seq) is not strictly greater than
// the last one seen from that (sender, lane) is recorded as a violation.
//
// The checker is meaningful only under contract-preserving chaos
// policies (Jitter, Poison): once the transport itself drops or reorders
// frames, per-sender ordering is not the Node's to keep.
type OrderChecker struct {
	mu         sync.Mutex
	last       map[orderKey]uint64
	violations []string
	received   int64
}

type orderKey struct {
	from MachineID
	lane uint8
}

// NewOrderChecker creates an empty checker.
func NewOrderChecker() *OrderChecker {
	return &OrderChecker{last: make(map[orderKey]uint64)}
}

// StampSeq prepends a lane byte and a sequence number to payload,
// producing a message Handler can check. Sequence numbers within a lane
// start at 1 and must increase by the sender's submission order.
func StampSeq(lane uint8, seq uint64, payload []byte) []byte {
	out := make([]byte, 9+len(payload)) //alloc:ok test-harness stamping, not a data-path frame
	out[0] = lane
	binary.LittleEndian.PutUint64(out[1:], seq)
	copy(out[9:], payload)
	return out
}

// Handler returns an AsyncHandler that records every stamped message and
// checks per-(sender, lane) monotonicity.
func (oc *OrderChecker) Handler() AsyncHandler {
	return func(from MachineID, msg []byte) {
		oc.mu.Lock()
		defer oc.mu.Unlock()
		oc.received++
		if len(msg) < 9 {
			oc.violations = append(oc.violations,
				fmt.Sprintf("from m%d: short message (%d bytes)", from, len(msg)))
			return
		}
		k := orderKey{from: from, lane: msg[0]}
		seq := binary.LittleEndian.Uint64(msg[1:])
		if seq <= oc.last[k] {
			oc.violations = append(oc.violations,
				fmt.Sprintf("from m%d lane %d: seq %d delivered after %d", from, k.lane, seq, oc.last[k]))
			return
		}
		oc.last[k] = seq
	}
}

// Violations returns every ordering violation observed so far.
func (oc *OrderChecker) Violations() []string {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return append([]string(nil), oc.violations...)
}

// Received returns the number of messages observed.
func (oc *OrderChecker) Received() int64 {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.received
}

// chaosPair builds two chaos-wrapped endpoints on the named transport
// ("bus" or "tcp") and returns the nodes plus the chaos hub.
func chaosPair(t *testing.T, transport string, seed int64, opts Options) (*Node, *Node, *Chaos) {
	t.Helper()
	ch := NewChaos(seed)
	var ta, tb Transport
	switch transport {
	case "bus":
		bus := NewBus()
		ta, tb = bus.Endpoint(0), bus.Endpoint(1)
	case "tcp":
		ra, err := NewTCPTransport(0, "")
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewTCPTransport(1, "")
		if err != nil {
			t.Fatal(err)
		}
		ra.AddPeer(1, rb.Addr())
		rb.AddPeer(0, ra.Addr())
		ta, tb = ra, rb
	default:
		t.Fatalf("unknown transport %q", transport)
	}
	a := NewNode(ch.Wrap(ta), opts)
	b := NewNode(ch.Wrap(tb), opts)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, ch
}

// chaosOrderingRun is the Send/Flush reordering regression. A sender
// goroutine submits sequence-stamped messages while a second goroutine
// hammers Flush; chaos jitter inside every transport Send stretches the
// window between a batch being sealed and it reaching the wire. Without
// per-destination send sequencing, a Flush carrying newer messages
// routinely overtakes an older sealed batch, and the invariant checker
// reports the inversion.
func chaosOrderingRun(t *testing.T, transport string, seed int64, lanes int) {
	t.Helper()
	a, b, ch := chaosPair(t, transport, seed, Options{
		FlushInterval: -1,
		BatchBytes:    64,
	})
	ch.SetPair(0, 1, Policy{Jitter: 100 * time.Microsecond})

	oc := NewOrderChecker()
	b.HandleAsync(protoOrdered, oc.Handler())

	const perLane = 100
	var wg sync.WaitGroup
	done := make(chan struct{})
	// Flushers: the roles the background flush timer and explicit Flush
	// callers (BSP superstep barriers) play in production. Several run at
	// once; their transport sends overlap, so only per-destination
	// sequencing inside the Node keeps what they carry in order.
	for f := 0; f < 3; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					a.Flush()
					time.Sleep(time.Microsecond)
				}
			}
		}()
	}
	// Each lane is one submitting goroutine: within a lane, Send(i)
	// returns before Send(i+1) starts, so delivery must be in lane order.
	// The yield after each Send exposes the partial batch to the flushers,
	// exactly as any gap between application sends would.
	var senders sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		senders.Add(1)
		go func(lane uint8) {
			defer senders.Done()
			for seq := uint64(1); seq <= perLane; seq++ {
				if err := a.Send(1, protoOrdered, StampSeq(lane, seq, nil)); err != nil {
					t.Errorf("lane %d seq %d: %v", lane, seq, err)
					return
				}
				time.Sleep(time.Microsecond)
			}
		}(uint8(lane))
	}
	senders.Wait()
	close(done)
	wg.Wait()
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	want := int64(perLane * lanes)
	deadline := time.Now().Add(5 * time.Second)
	for oc.Received() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := oc.Received(); got != want {
		t.Fatalf("received %d/%d messages (jitter-only chaos must not lose any)", got, want)
	}
	if v := oc.Violations(); len(v) > 0 {
		t.Fatalf("per-sender ordering broken (%d violations), e.g. %s", len(v), v[0])
	}
}

func TestChaosSendFlushOrderingBus(t *testing.T) {
	for _, seed := range Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosOrderingRun(t, "bus", seed, 1)
		})
	}
}

func TestChaosSendFlushOrderingManySendersBus(t *testing.T) {
	for _, seed := range Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosOrderingRun(t, "bus", seed, 4)
		})
	}
}

func TestChaosSendFlushOrderingTCP(t *testing.T) {
	for _, seed := range Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosOrderingRun(t, "tcp", seed, 2)
		})
	}
}

// TestChaosPoisonFrameOwnership emulates a buffer-reusing transport:
// every delivered frame is overwritten the moment the receiver callback
// returns. Sync-call requests and responses must survive intact, which
// they only do if the Node copies what it retains (the documented frame
// ownership contract).
func TestChaosPoisonFrameOwnership(t *testing.T) {
	for _, seed := range Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b, ch := chaosPair(t, "bus", seed, Options{FlushInterval: -1})
			ch.PoisonFrames(true)
			b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) {
				// Handlers may compute over the request after yielding the
				// scheduler; the slice they were handed must stay stable.
				time.Sleep(50 * time.Microsecond)
				sum := sha256.Sum256(req)
				return append(append([]byte(nil), req...), sum[:]...), nil
			})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						req := bytes.Repeat([]byte{byte(g), byte(i)}, 32)
						resp, err := a.Call(context.Background(), 1, protoEcho, req)
						if err != nil {
							t.Errorf("call: %v", err)
							return
						}
						wantSum := sha256.Sum256(req)
						if !bytes.Equal(resp[:len(req)], req) || !bytes.Equal(resp[len(req):], wantSum[:]) {
							t.Errorf("response corrupted: frame retained past receiver callback")
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestChaosDropsTimeOutSyncCalls: a lossy link turns sync calls into
// timeouts, never into wrong results.
func TestChaosDropsTimeOutSyncCalls(t *testing.T) {
	a, b, ch := chaosPair(t, "bus", 7, Options{FlushInterval: -1, CallTimeout: 100 * time.Millisecond})
	ch.SetPair(0, 1, Policy{Drop: 1.0})
	b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })
	if _, err := a.Call(context.Background(), 1, protoEcho, []byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call over fully lossy link = %v, want ErrTimeout", err)
	}
	if st := ch.Stats(); st.Dropped == 0 {
		t.Fatalf("chaos stats recorded no drops: %+v", st)
	}
}

// TestChaosOneWayPartition: cutting a->b kills a's requests and b's
// responses, but async traffic b->a still flows.
func TestChaosOneWayPartition(t *testing.T) {
	a, b, ch := chaosPair(t, "bus", 11, Options{FlushInterval: -1, CallTimeout: 100 * time.Millisecond})
	ch.Cut(0, 1)
	var got atomic.Int64
	a.HandleAsync(protoNotify, func(MachineID, []byte) { got.Add(1) })
	b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })

	if _, err := a.Call(context.Background(), 1, protoEcho, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a->b request across cut = %v, want ErrTimeout", err)
	}
	// b->a direction is untouched.
	if err := b.Send(0, protoNotify, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	deadline := time.Now().Add(time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatal("b->a async did not survive a one-way a->b cut")
	}
	// Healing restores the link.
	ch.Heal(0, 1)
	if _, err := a.Call(context.Background(), 1, protoEcho, []byte("back")); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

// TestChaosDelayReorders is a harness sanity check: when the transport
// itself is allowed to delay frames, per-sender order genuinely breaks —
// proving the checker detects what the Node-level fix prevents.
func TestChaosDelayReorders(t *testing.T) {
	a, b, ch := chaosPair(t, "bus", 13, Options{FlushInterval: -1, BatchBytes: 1})
	ch.SetPair(0, 1, Policy{Delay: 0.5, MaxDelay: 2 * time.Millisecond})
	oc := NewOrderChecker()
	b.HandleAsync(protoOrdered, oc.Handler())
	const n = 300
	for seq := uint64(1); seq <= n; seq++ {
		if err := a.Send(1, protoOrdered, StampSeq(0, seq, nil)); err != nil {
			t.Fatal(err)
		}
	}
	ch.Drain()
	deadline := time.Now().Add(5 * time.Second)
	for oc.Received() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := oc.Received(); got != n {
		t.Fatalf("received %d/%d (delay must not lose frames)", got, n)
	}
	if st := ch.Stats(); st.Delayed == 0 {
		t.Fatalf("no frames delayed: %+v", st)
	}
	if len(oc.Violations()) == 0 {
		t.Fatal("a delaying transport did not reorder 300 frames; checker or chaos broken")
	}
}

// TestChaosDrainDuringDelayedSends drains the chaos hub again and again
// while senders keep issuing delayed frames: a frame delayed after one
// Drain began is waited for by that Drain or by a later one, and Drain
// never races the bookkeeping of new delays (a WaitGroup did: an Add from
// zero racing a Wait, which -race reports).
func TestChaosDrainDuringDelayedSends(t *testing.T) {
	for _, seed := range Seeds() {
		a, b, ch := chaosPair(t, "bus", seed, Options{FlushInterval: -1, BatchBytes: 1})
		ch.SetPair(0, 1, Policy{Delay: 0.9, MaxDelay: 50 * time.Microsecond})
		var got atomic.Int64
		b.HandleAsync(protoOrdered, func(MachineID, []byte) { got.Add(1) })
		const senders, perSender = 3, 300
		var wg sync.WaitGroup
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < perSender; j++ {
					if err := a.Send(1, protoOrdered, nil); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		stop, drained := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(drained)
			for {
				select {
				case <-stop:
					return
				default:
					ch.Drain()
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-drained
		ch.Drain()
		if st := ch.Stats(); st.Delivered != senders*perSender || st.Delayed == 0 {
			t.Fatalf("seed %d: %+v after the last Drain, want all %d frames delivered", seed, st, senders*perSender)
		}
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < senders*perSender && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := got.Load(); n != senders*perSender {
			t.Fatalf("seed %d: received %d of %d", seed, n, senders*perSender)
		}
	}
}

// TestChaosDuplicates: duplicated frames mean duplicated deliveries; the
// messaging layer does not dedup (that is an application concern), so the
// count doubles exactly.
func TestChaosDuplicates(t *testing.T) {
	a, b, ch := chaosPair(t, "bus", 17, Options{FlushInterval: -1, BatchBytes: 1})
	ch.SetPair(0, 1, Policy{Dup: 1.0})
	var got atomic.Int64
	b.HandleAsync(protoNotify, func(MachineID, []byte) { got.Add(1) })
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(1, protoNotify, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 2*n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 2*n {
		t.Fatalf("received %d, want %d (every frame duplicated)", got.Load(), 2*n)
	}
}

// TestMalformedBatchTailCounted: a batch whose item length overruns the
// frame is dropped, but the drop lands in msg.m<i>.dropped_frames.
func TestMalformedBatchTailCounted(t *testing.T) {
	bus := NewBus()
	b := NewNode(bus.Endpoint(1), Options{})
	defer b.Close()
	raw := bus.Endpoint(5)                                              // a sender with no Node on top
	frame := []byte{kindBatch, 0x01, 0x00, 0xFF, 0x00, 0x00, 0x00, 'x'} // claims 255-byte item, carries 1
	if err := raw.Send(1, buf.Wrap(frame)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for b.Stats().DroppedFrames == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Stats().DroppedFrames; got != 1 {
		t.Fatalf("DroppedFrames = %d, want 1", got)
	}
}

// TestNoHandlerDeadLetterCounted: async messages for an unregistered
// protocol are counted, so "lost" is distinguishable from "never sent".
func TestNoHandlerDeadLetterCounted(t *testing.T) {
	a, b := newPair(t, Options{FlushInterval: -1})
	if err := a.Send(1, ProtocolID(0x7777), []byte("nobody home")); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	deadline := time.Now().Add(time.Second)
	for b.Stats().NoHandler == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := b.Stats().NoHandler; got != 1 {
		t.Fatalf("NoHandler = %d, want 1", got)
	}
}

// TestErrorCodeSurvivesWire: WithCode tags cross the wire as one byte and
// come back on *RemoteError, regardless of message text.
func TestErrorCodeSurvivesWire(t *testing.T) {
	a, b := newPair(t, Options{})
	// The message text deliberately contains another sentinel's text: a
	// substring matcher would mis-map it; the code cannot.
	trap := errors.New("key not found while checking: cell already exists")
	b.HandleSync(protoFail, func(context.Context, MachineID, []byte) ([]byte, error) {
		return nil, WithCode(42, trap)
	})
	_, err := a.Call(context.Background(), 1, protoFail, nil)
	if err == nil {
		t.Fatal("want error")
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RemoteError", err, err)
	}
	if re.Code != 42 {
		t.Fatalf("code = %d, want 42", re.Code)
	}
	if re.Msg != trap.Error() {
		t.Fatalf("msg = %q", re.Msg)
	}
	if ErrorCode(err) != 42 {
		t.Fatalf("ErrorCode(err) = %d, want 42", ErrorCode(err))
	}
}

// TestChaosDupDelayLeaseIntegrity: duplicated frames share one backing
// array (the chaos transport retains instead of copying) and delayed
// frames hold their lease across the holdback — so a component that
// releases a lease early would hand its duplicate, or its delayed self, a
// recycled or poisoned buffer. Every delivered message carries a checksum
// over its body; under dup+delay+poison, all of them must verify, and
// under -race any read of a recycled buffer trips the scribble.
func TestChaosDupDelayLeaseIntegrity(t *testing.T) {
	for _, seed := range Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, b, ch := chaosPair(t, "bus", seed, Options{FlushInterval: -1, CallTimeout: 2 * time.Second})
			ch.PoisonFrames(true)
			ch.SetDefault(Policy{Dup: 0.4, Delay: 0.4, MaxDelay: 2 * time.Millisecond})
			var asyncGot, asyncBad atomic.Int64
			b.HandleAsync(protoNotify, func(_ MachineID, msg []byte) {
				if len(msg) < sha256.Size {
					asyncBad.Add(1)
					return
				}
				sum := sha256.Sum256(msg[sha256.Size:])
				if !bytes.Equal(msg[:sha256.Size], sum[:]) {
					asyncBad.Add(1)
				}
				asyncGot.Add(1)
			})
			b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) {
				// Yield so a duplicate's delivery can interleave while this
				// handler still reads the shared backing array.
				time.Sleep(20 * time.Microsecond)
				sum := sha256.Sum256(req)
				return append(append([]byte(nil), req...), sum[:]...), nil
			})

			const asyncN = 150
			for i := 0; i < asyncN; i++ {
				body := bytes.Repeat([]byte{byte(i)}, 48)
				sum := sha256.Sum256(body)
				if err := a.Send(1, protoNotify, append(sum[:], body...)); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						req := bytes.Repeat([]byte{byte(g), byte(i)}, 24)
						resp, err := a.Call(context.Background(), 1, protoEcho, req)
						if err != nil {
							t.Errorf("call: %v", err) // dup+delay never lose frames
							return
						}
						wantSum := sha256.Sum256(req)
						if !bytes.Equal(resp[:len(req)], req) || !bytes.Equal(resp[len(req):], wantSum[:]) {
							t.Errorf("sync response corrupted under dup+delay")
							return
						}
					}
				}(g)
			}
			wg.Wait()
			ch.Drain()
			deadline := time.Now().Add(2 * time.Second)
			for asyncGot.Load() < asyncN && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if asyncGot.Load() < asyncN {
				t.Fatalf("received %d/%d async messages (delay/dup must not lose frames)", asyncGot.Load(), asyncN)
			}
			if asyncBad.Load() != 0 {
				t.Fatalf("%d async messages failed checksum: recycled buffer observed", asyncBad.Load())
			}
			if st := ch.Stats(); st.Duplicated == 0 || st.Delayed == 0 {
				t.Fatalf("chaos injected no dup/delay: %+v", st)
			}
		})
	}
}
