package msg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const (
	protoEcho ProtocolID = iota + 1
	protoUpper
	protoFail
	protoNotify
)

// newPair returns two connected nodes on a fresh bus.
func newPair(t *testing.T, opts Options) (*Node, *Node) {
	t.Helper()
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), opts)
	b := NewNode(bus.Endpoint(1), opts)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestSyncCallEcho(t *testing.T) {
	a, b := newPair(t, Options{})
	b.HandleSync(protoEcho, func(_ context.Context, from MachineID, req []byte) ([]byte, error) {
		if from != 0 {
			t.Errorf("from = %d, want 0", from)
		}
		return req, nil
	})
	resp, err := a.Call(context.Background(), 1, protoEcho, []byte("hello trinity"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello trinity" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestSyncCallTransform(t *testing.T) {
	a, b := newPair(t, Options{})
	b.HandleSync(protoUpper, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) {
		return bytes.ToUpper(req), nil
	})
	resp, err := a.Call(context.Background(), 1, protoUpper, []byte("abc"))
	if err != nil || string(resp) != "ABC" {
		t.Fatalf("resp=%q err=%v", resp, err)
	}
}

func TestSyncCallRemoteError(t *testing.T) {
	a, b := newPair(t, Options{})
	b.HandleSync(protoFail, func(context.Context, MachineID, []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	})
	_, err := a.Call(context.Background(), 1, protoFail, nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want remote kaboom", err)
	}
}

func TestSyncCallNoHandler(t *testing.T) {
	a, _ := newPair(t, Options{})
	_, err := a.Call(context.Background(), 1, ProtocolID(99), nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v, want no-handler error", err)
	}
}

func TestSyncCallUnreachable(t *testing.T) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{})
	defer a.Close()
	_, err := a.Call(context.Background(), 7, protoEcho, nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestSyncCallTimeout(t *testing.T) {
	a, b := newPair(t, Options{CallTimeout: 30 * time.Millisecond})
	block := make(chan struct{})
	b.HandleSync(protoEcho, func(context.Context, MachineID, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	_, err := a.Call(context.Background(), 1, protoEcho, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	close(block)
}

func TestSyncCallsConcurrent(t *testing.T) {
	a, b := newPair(t, Options{})
	b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) {
		return req, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			resp, err := a.Call(context.Background(), 1, protoEcho, []byte(want))
			if err != nil || string(resp) != want {
				t.Errorf("call %d: resp=%q err=%v (correlation broken?)", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestAsyncDelivery(t *testing.T) {
	a, b := newPair(t, Options{FlushInterval: -1})
	var got []string
	var mu sync.Mutex
	done := make(chan struct{}, 10)
	b.HandleAsync(protoNotify, func(_ MachineID, m []byte) {
		mu.Lock()
		got = append(got, string(m))
		mu.Unlock()
		done <- struct{}{}
	})
	for i := 0; i < 5; i++ {
		if err := a.Send(1, protoNotify, []byte(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("async messages not delivered")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Packed messages from one sender preserve order.
	for i, m := range got {
		if m != fmt.Sprintf("n%d", i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

// TestMessagePacking sends n messages and checks how many frames carry
// them: packed, far fewer than n; under BatchBytes 1 (the §4.2 packing
// ablation), exactly one frame per message. Either way every message
// arrives, in the order it was sent.
func TestMessagePacking(t *testing.T) {
	const n = 1000
	for _, tc := range []struct {
		name                 string
		batchBytes           int
		minFrames, maxFrames int64
	}{
		{"packed", 0, 1, n/10 - 1},
		{"one-per-frame", 1, n, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newPair(t, Options{FlushInterval: -1, BatchBytes: tc.batchBytes})
			var mu sync.Mutex
			var got []byte
			b.HandleAsync(protoNotify, func(_ MachineID, m []byte) {
				mu.Lock()
				got = append(got, m[0])
				mu.Unlock()
			})
			for i := 0; i < n; i++ {
				a.Send(1, protoNotify, []byte{byte(i)})
			}
			a.Flush()
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				mu.Lock()
				k := len(got)
				mu.Unlock()
				if k >= n {
					break
				}
				time.Sleep(time.Millisecond)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != n {
				t.Fatalf("received %d/%d", len(got), n)
			}
			for i, m := range got {
				if m != byte(i) {
					t.Fatalf("message %d arrived as %d: order broken", i, m)
				}
			}
			if s := a.Stats(); s.FramesSent < tc.minFrames || s.FramesSent > tc.maxFrames {
				t.Fatalf("%d messages in %d frames", s.MessagesSent, s.FramesSent)
			}
		})
	}
}

// TestPackingAllocs pins the two allocation claims of the packing path:
// a Send that only packs, and a Flush with nothing pending (the
// background flusher's idle tick), allocate nothing.
func TestPackingAllocs(t *testing.T) {
	a, b := newPair(t, Options{FlushInterval: -1})
	b.HandleAsync(protoNotify, func(MachineID, []byte) {})
	msg := make([]byte, 16)
	if err := a.Send(1, protoNotify, msg); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { a.Send(1, protoNotify, msg) }); got != 0 {
		t.Errorf("packed Send: %v allocs, want 0", got)
	}
	a.Flush()
	if got := testing.AllocsPerRun(100, func() { a.Flush() }); got != 0 {
		t.Errorf("idle Flush: %v allocs, want 0", got)
	}
}

func TestBatchFlushOnSize(t *testing.T) {
	a, b := newPair(t, Options{FlushInterval: -1, BatchBytes: 256})
	var received atomic.Int64
	b.HandleAsync(protoNotify, func(MachineID, []byte) { received.Add(1) })
	// 300 bytes of messages must trigger an automatic size-based flush
	// without an explicit Flush call.
	for i := 0; i < 30; i++ {
		a.Send(1, protoNotify, make([]byte, 10))
	}
	deadline := time.Now().Add(time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() == 0 {
		t.Fatal("size-based flush never fired")
	}
}

func TestBackgroundFlusher(t *testing.T) {
	a, b := newPair(t, Options{FlushInterval: time.Millisecond})
	got := make(chan struct{})
	var once sync.Once
	b.HandleAsync(protoNotify, func(MachineID, []byte) { once.Do(func() { close(got) }) })
	a.Send(1, protoNotify, []byte("x"))
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("background flusher did not deliver")
	}
}

func TestSendAfterClose(t *testing.T) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{})
	a.Close()
	if err := a.Send(1, protoNotify, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := a.Call(context.Background(), 1, protoEcho, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after close = %v, want ErrClosed", err)
	}
	a.Close() // idempotent
}

func TestBusDisconnectSimulatesCrash(t *testing.T) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{FlushInterval: -1})
	b := NewNode(bus.Endpoint(1), Options{})
	defer a.Close()
	b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })
	if _, err := a.Call(context.Background(), 1, protoEcho, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	bus.Disconnect(1)
	if _, err := a.Call(context.Background(), 1, protoEcho, []byte("ok")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to crashed machine = %v, want ErrUnreachable", err)
	}
}

func TestSelfSend(t *testing.T) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{FlushInterval: -1})
	defer a.Close()
	got := make(chan string, 1)
	a.HandleAsync(protoNotify, func(_ MachineID, m []byte) { got <- string(m) })
	a.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })
	// A machine can message itself through the same path as remote sends.
	if err := a.Send(0, protoNotify, []byte("self")); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	select {
	case m := <-got:
		if m != "self" {
			t.Fatalf("self message = %q", m)
		}
	case <-time.After(time.Second):
		t.Fatal("self send not delivered")
	}
	if resp, err := a.Call(context.Background(), 0, protoEcho, []byte("loop")); err != nil || string(resp) != "loop" {
		t.Fatalf("self call: %q %v", resp, err)
	}
}

func TestManyMachinesAllToAll(t *testing.T) {
	const machines = 8
	bus := NewBus()
	nodes := make([]*Node, machines)
	var counts [machines]atomic.Int64
	for i := 0; i < machines; i++ {
		n := NewNode(bus.Endpoint(MachineID(i)), Options{FlushInterval: -1})
		idx := i
		n.HandleAsync(protoNotify, func(MachineID, []byte) { counts[idx].Add(1) })
		nodes[i] = n
		defer n.Close()
	}
	const per = 100
	var wg sync.WaitGroup
	for i := 0; i < machines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				for k := 0; k < machines; k++ {
					if k != i {
						nodes[i].Send(MachineID(k), protoNotify, []byte{byte(j)})
					}
				}
			}
			nodes[i].Flush()
		}(i)
	}
	wg.Wait()
	want := int64(per * (machines - 1))
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := range counts {
			if counts[i].Load() != want {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	for i := range counts {
		if got := counts[i].Load(); got != want {
			t.Errorf("machine %d received %d, want %d", i, got, want)
		}
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	ta, err := NewTCPTransport(0, "")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTCPTransport(1, "")
	if err != nil {
		t.Fatal(err)
	}
	ta.AddPeer(1, tb.Addr())
	tb.AddPeer(0, ta.Addr())
	a := NewNode(ta, Options{FlushInterval: -1})
	b := NewNode(tb, Options{})
	defer a.Close()
	defer b.Close()

	b.HandleSync(protoUpper, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) {
		return bytes.ToUpper(req), nil
	})
	resp, err := a.Call(context.Background(), 1, protoUpper, []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "OVER TCP" {
		t.Fatalf("resp = %q", resp)
	}

	// Async + packing over TCP.
	var received atomic.Int64
	b.HandleAsync(protoNotify, func(MachineID, []byte) { received.Add(1) })
	for i := 0; i < 500; i++ {
		a.Send(1, protoNotify, []byte("x"))
	}
	a.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for received.Load() < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() != 500 {
		t.Fatalf("received %d/500 over TCP", received.Load())
	}
}

func TestTCPUnreachablePeer(t *testing.T) {
	ta, err := NewTCPTransport(0, "")
	if err != nil {
		t.Fatal(err)
	}
	a := NewNode(ta, Options{FlushInterval: -1})
	defer a.Close()
	if _, err := a.Call(context.Background(), 3, protoEcho, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown peer = %v, want ErrUnreachable", err)
	}
	ta.AddPeer(4, "127.0.0.1:1") // nothing listens there
	if _, err := a.Call(context.Background(), 4, protoEcho, nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("dead peer = %v, want ErrUnreachable", err)
	}
}

func TestTCPPeerCrash(t *testing.T) {
	ta, _ := NewTCPTransport(0, "")
	tb, _ := NewTCPTransport(1, "")
	ta.AddPeer(1, tb.Addr())
	tb.AddPeer(0, ta.Addr())
	a := NewNode(ta, Options{FlushInterval: -1, CallTimeout: 200 * time.Millisecond})
	b := NewNode(tb, Options{})
	defer a.Close()
	b.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })
	if _, err := a.Call(context.Background(), 1, protoEcho, []byte("up")); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// The first call after a crash may fail with either a broken pipe
	// (unreachable) or a timeout depending on TCP shutdown timing; after
	// the connection is dropped, subsequent calls must fail fast.
	a.Call(context.Background(), 1, protoEcho, []byte("down"))
	_, err := a.Call(context.Background(), 1, protoEcho, []byte("down"))
	if !errors.Is(err, ErrUnreachable) && !errors.Is(err, ErrTimeout) {
		t.Fatalf("call to crashed TCP peer = %v", err)
	}
}

func BenchmarkSyncCall(b *testing.B) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{})
	c := NewNode(bus.Endpoint(1), Options{})
	defer a.Close()
	defer c.Close()
	c.HandleSync(protoEcho, func(_ context.Context, _ MachineID, req []byte) ([]byte, error) { return req, nil })
	req := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Call(context.Background(), 1, protoEcho, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncPacked vs BenchmarkAsyncUnpacked is the message-packing
// ablation (§4.2: "a huge cost if the system does not automatically pack
// small messages between two machines into a single transfer").
func benchmarkAsync(b *testing.B, batchBytes int) {
	bus := NewBus()
	a := NewNode(bus.Endpoint(0), Options{FlushInterval: -1, BatchBytes: batchBytes})
	c := NewNode(bus.Endpoint(1), Options{BatchBytes: batchBytes})
	defer a.Close()
	defer c.Close()
	var received atomic.Int64
	c.HandleAsync(protoNotify, func(MachineID, []byte) { received.Add(1) })
	msg := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Send(1, protoNotify, msg)
	}
	a.Flush()
	for received.Load() < int64(b.N) {
		time.Sleep(10 * time.Microsecond)
	}
}

func BenchmarkAsyncPacked(b *testing.B)   { benchmarkAsync(b, 0) }
func BenchmarkAsyncUnpacked(b *testing.B) { benchmarkAsync(b, 1) }
