package main

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"
)

// fakeServer answers every line with OK. Once, stallAfter into the
// connection's life, it stops answering for stall.
func fakeServer(t *testing.T, stallAfter, stall time.Duration) (addr string, stop func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				var first time.Time
				stalled := false
				for sc.Scan() {
					if first.IsZero() {
						first = time.Now()
					}
					if !stalled && stall > 0 && time.Since(first) >= stallAfter {
						stalled = true
						time.Sleep(stall)
					}
					if _, err := conn.Write([]byte("OK\r\n")); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), func() { l.Close(); wg.Wait() }
}

func setStream(n int) *stream {
	s := &stream{}
	for i := 0; i < n; i++ {
		s.set(1, uint64(i), uint64(i), 16)
	}
	return s
}

// An open-loop request is timed from when it was due, so a server stall
// must show in the latency of every request that was queued behind it,
// not only in the one the server was holding: the coordinated-omission
// check. The generator's own lateness stays small throughout and is
// reported separately.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate     = 1000.0 // per connection: one request per millisecond
		dur      = 800 * time.Millisecond
		stallAt  = 200 * time.Millisecond
		stallFor = 200 * time.Millisecond
	)
	addr, stop := fakeServer(t, stallAt, stallFor)
	defer stop()
	cs, err := dialAll(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(cs)
	streams := []*stream{setStream(openRequests(rate, dur))}
	logs, _ := runOpen(cs, streams, rate, dur)
	l := logs[0]
	if l.err != nil || l.done != l.sent || l.sent < 700 {
		t.Fatalf("phase: err %v, sent %d, done %d", l.err, l.sent, l.done)
	}

	// Every request due inside the stall waited at least until it ended.
	stallStart, stallEnd := int64(0), int64(0)
	for i := 0; i < l.done; i++ {
		if lat := l.recvNs[i] - l.dueNs[i]; lat > int64(stallFor)*9/10 && stallStart == 0 {
			stallStart, stallEnd = l.dueNs[i], l.recvNs[i]
		}
	}
	if stallStart == 0 {
		t.Fatal("no request saw the 200 ms stall")
	}
	queued := 0
	for i := 0; i < l.done; i++ {
		if l.dueNs[i] > stallStart && l.dueNs[i] < stallEnd-int64(20*time.Millisecond) {
			queued++
			if l.recvNs[i] < stallEnd-int64(5*time.Millisecond) {
				t.Fatalf("request %d, due %v into the phase, was answered at %v: before the stall ended at %v",
					i, time.Duration(l.dueNs[i]), time.Duration(l.recvNs[i]), time.Duration(stallEnd))
			}
		}
	}
	if queued < 100 {
		t.Errorf("only %d requests were due during the stall; the sender stopped sending on schedule", queued)
	}
	// A closed loop would have recorded one slow request. Here about a
	// fifth of the phase's requests carry the stall: p50 untouched, the
	// upper percentiles not.
	lat := latencies(samplesOf(logs))
	if p50, p90 := percentile(lat, 0.5), percentile(lat, 0.9); p50 > 20e6 || p90 < 50e6 {
		t.Errorf("p50 %v p90 %v: the stall should own the top fifth only", time.Duration(p50), time.Duration(p90))
	}
	// The sender kept to its schedule while the server stalled.
	late := sortedCopy(lateness(logs))
	if p99 := percentile(late, 0.99); p99 > 20e6 || late[0] < 0 {
		t.Errorf("sender lateness min %v p99 %v: want small and never negative", time.Duration(late[0]), time.Duration(p99))
	}
	if b := backlog(logs, streams, int64(stallAt+stallFor/2)); b < 50 {
		t.Errorf("backlog in the middle of the stall = %d requests, want about 100", b)
	}
	if b := backlog(logs, streams, int64(dur)); b > 20 {
		t.Errorf("backlog at the end = %d, want almost none", b)
	}
}

// lateness must report what the generator did, not what the server did.
func TestLatenessIsSendMinusDue(t *testing.T) {
	l := newConnLog(3)
	l.dueNs = []int64{0, 1000, 2000}
	l.sentNs = []int64{50, 1700, 2000}
	l.recvNs = []int64{9000, 9000, 9000}
	l.sent, l.done = 3, 3
	got := lateness([]*connLog{l})
	if len(got) != 3 || got[0] != 50 || got[1] != 700 || got[2] != 0 {
		t.Errorf("lateness = %v, want [50 700 0]", got)
	}
	s := samplesOf([]*connLog{l})
	if s[1].latNs != 8000 {
		t.Errorf("latency from due time = %d, want 8000", s[1].latNs)
	}
}

func TestClosedLoopKeepsDepthAndStopsOnTime(t *testing.T) {
	addr, stop := fakeServer(t, 0, 0)
	defer stop()
	cs, err := dialAll(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(cs)
	streams := []*stream{setStream(200_000), setStream(200_000)}
	logs, took := runClosed(cs, streams, 8, 200*time.Millisecond)
	if took < 200*time.Millisecond || took > 2*time.Second {
		t.Errorf("phase took %v, want about 200ms", took)
	}
	for c, l := range logs {
		if l.err != nil || l.done != l.sent || l.done == 0 || l.done == 200_000 {
			t.Errorf("connection %d: err %v, sent %d, done %d", c, l.err, l.sent, l.done)
		}
		for i := 0; i < l.done; i++ {
			if l.kind[i] != replyOK || l.recvNs[i] < l.sentNs[i] {
				t.Fatalf("connection %d reply %d: kind %d, sent %d, received %d", c, i, l.kind[i], l.sentNs[i], l.recvNs[i])
			}
		}
	}
	// A short stream ends the phase early, with everything answered.
	logs, _ = runClosed(cs, []*stream{setStream(10), setStream(10)}, 1, time.Hour)
	if logs[0].done != 10 || logs[1].done != 10 {
		t.Errorf("short stream: done %d and %d, want 10 and 10", logs[0].done, logs[1].done)
	}
}
