package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator: one process, one TCP connection per client, request
// bytes generated before the clock starts. Two loop shapes:
//
//   - closed: each connection keeps `depth` requests outstanding and sends
//     the next only when a reply frees a slot (depth 1 = round-trip time,
//     depth 64 = capacity). One goroutine per connection.
//   - open: each connection sends request i at start + i/rate whether or
//     not earlier replies have arrived, and times it from that due
//     instant, so a stall is charged to every request queued behind it.
//     One writer and one reader goroutine per connection.
//
// Replies are matched to requests FIFO per connection, which the daemon's
// one-goroutine-per-connection serve loop guarantees.

type replyKind uint8

const (
	replyNone replyKind = iota // never arrived
	replyOK
	replyValue
	replyNotFound
	replyVisited
	replyErr
)

// connLog is what one connection recorded during one phase. All times are
// nanoseconds since the phase started. Entry i describes request i of the
// stream; entries [0,done) are complete.
type connLog struct {
	dueNs  []int64 // open loop: scheduled send time; closed loop: actual send time
	sentNs []int64 // when the bytes were handed to the kernel
	recvNs []int64
	kind   []replyKind
	val    []uint64 // VALUE: FNV of the payload; VISITED: the count
	size   []uint32 // VALUE: payload length
	sent   int
	done   int
	err    error  // transport failure that cut the phase short
	errMsg string // text of the first ERR reply, for failure reports
}

func newConnLog(n int) *connLog {
	return &connLog{
		dueNs: make([]int64, n), sentNs: make([]int64, n), recvNs: make([]int64, n),
		kind: make([]replyKind, n), val: make([]uint64, n), size: make([]uint32, n),
	}
}

// client is one connection to the daemon.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial daemon: %w", err)
	}
	return &client{conn: c, rd: bufio.NewReaderSize(c, 256<<10)}, nil
}

func dialAll(addr string, n int) ([]*client, error) {
	out := make([]*client, 0, n)
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.conn.Close()
	}
}

var (
	prefixValue   = []byte("VALUE ")
	prefixVisited = []byte("VISITED ")
	prefixErr     = []byte("ERR")
	lineOK        = []byte("OK")
	lineNotFound  = []byte("NOT_FOUND")
)

// readReply reads one reply line into entry i of log.
func (c *client) readReply(log *connLog, i int) error {
	line, err := c.rd.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("read reply %d: %w", i, err)
	}
	line = bytes.TrimRight(line, "\r\n")
	switch {
	case bytes.Equal(line, lineOK):
		log.kind[i] = replyOK
	case bytes.HasPrefix(line, prefixValue):
		payload := line[len(prefixValue):]
		log.kind[i] = replyValue
		log.val[i] = fnvAdd(fnvOffset, payload)
		log.size[i] = uint32(len(payload))
	case bytes.HasPrefix(line, prefixVisited):
		var n uint64
		for _, d := range line[len(prefixVisited):] {
			if d < '0' || d > '9' {
				return fmt.Errorf("malformed reply %q", line)
			}
			n = n*10 + uint64(d-'0')
		}
		log.kind[i] = replyVisited
		log.val[i] = n
	case bytes.Equal(line, lineNotFound):
		log.kind[i] = replyNotFound
	case bytes.HasPrefix(line, prefixErr):
		log.kind[i] = replyErr
		if log.errMsg == "" {
			log.errMsg = string(line)
		}
	default:
		return fmt.Errorf("malformed reply %q", line)
	}
	return nil
}

// drainGrace bounds how long a phase waits for replies still owed once it
// has stopped sending. Anything later is a timeout and counts as failed.
const drainGrace = 10 * time.Second

// runClosed drives every stream closed-loop at the given depth until dur
// has passed or the stream is used up, then collects the outstanding
// replies. It returns one log per connection and the phase length.
func runClosed(cs []*client, streams []*stream, depth int, dur time.Duration) ([]*connLog, time.Duration) {
	logs := make([]*connLog, len(cs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cs {
		logs[i] = newConnLog(streams[i].len())
		wg.Add(1)
		go func(c *client, s *stream, log *connLog) {
			defer wg.Done()
			log.err = closedLoop(c, s, log, depth, start, dur)
		}(cs[i], streams[i], logs[i])
	}
	wg.Wait()
	return logs, time.Since(start)
}

func closedLoop(c *client, s *stream, log *connLog, depth int, start time.Time, dur time.Duration) error {
	c.conn.SetDeadline(start.Add(dur + drainGrace))
	defer c.conn.SetDeadline(time.Time{})
	n := s.len()
	for {
		now := time.Since(start)
		if free := depth - (log.sent - log.done); free > 0 && log.sent < n && now < dur {
			to := log.sent + free
			if to > n {
				to = n
			}
			if _, err := c.conn.Write(s.buf[s.off(log.sent):s.off(to)]); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			t := int64(time.Since(start))
			for i := log.sent; i < to; i++ {
				log.dueNs[i], log.sentNs[i] = t, t
			}
			log.sent = to
		}
		if log.done == log.sent {
			return nil
		}
		// Block for one reply, then take whatever else already arrived.
		for {
			if err := c.readReply(log, log.done); err != nil {
				return err
			}
			log.recvNs[log.done] = int64(time.Since(start))
			log.done++
			if log.done == log.sent || c.rd.Buffered() == 0 {
				break
			}
		}
	}
}

// runOpen drives every stream open-loop: connection c sends request i at
// i/ratePerConn seconds into the phase (offset by c's share of one
// interval so connections do not fire together), for dur.
func runOpen(cs []*client, streams []*stream, ratePerConn float64, dur time.Duration) ([]*connLog, time.Duration) {
	logs := make([]*connLog, len(cs))
	interval := float64(time.Second) / ratePerConn
	start := time.Now()
	var wg sync.WaitGroup
	for i := range cs {
		logs[i] = newConnLog(streams[i].len())
		offset := interval * float64(i) / float64(len(cs))
		wg.Add(1)
		go func(c *client, s *stream, log *connLog) {
			defer wg.Done()
			log.err = openLoop(c, s, log, interval, offset, start, dur)
		}(cs[i], streams[i], logs[i])
	}
	wg.Wait()
	return logs, time.Since(start)
}

// openRequests is how many requests an open-loop phase of dur at
// ratePerConn will want from each stream.
func openRequests(ratePerConn float64, dur time.Duration) int {
	return int(ratePerConn*dur.Seconds()) + 1
}

func openLoop(c *client, s *stream, log *connLog, interval, offset float64, start time.Time, dur time.Duration) error {
	c.conn.SetDeadline(start.Add(dur + drainGrace))
	defer c.conn.SetDeadline(time.Time{})
	n := s.len()
	for i := 0; i < n; i++ {
		log.dueNs[i] = int64(offset + float64(i)*interval)
	}

	var sent atomic.Int64
	wake := make(chan struct{}, 1) // capacity 1: a pending wake-up is enough, more carry no information
	writerDone := make(chan error, 1)
	go func() {
		defer close(wake)
		unpin := pinForSleep()
		defer unpin()
		next := 0
		for next < n {
			// Wake on the first tick at or after the next due time and
			// send everything due by then in one write.
			tick := (log.dueNs[next] + int64(sendTick) - 1) / int64(sendTick) * int64(sendTick)
			preciseSleep(tick - int64(time.Since(start)))
			now := int64(time.Since(start))
			if now >= int64(dur) {
				break
			}
			to := next
			for to < n && log.dueNs[to] <= now {
				to++
			}
			if _, err := c.conn.Write(s.buf[s.off(next):s.off(to)]); err != nil {
				writerDone <- fmt.Errorf("write: %w", err)
				return
			}
			t := int64(time.Since(start))
			for i := next; i < to; i++ {
				log.sentNs[i] = t
			}
			next = to
			sent.Store(int64(next))
			select {
			case wake <- struct{}{}:
			default:
			}
		}
		writerDone <- nil
	}()

	// Reader: block on the socket only while a reply is owed; otherwise
	// wait for the writer to send more or finish.
	var readErr error
	for {
		if int64(log.done) < sent.Load() {
			if readErr = c.readReply(log, log.done); readErr != nil {
				break
			}
			log.recvNs[log.done] = int64(time.Since(start))
			log.done++
			continue
		}
		if _, more := <-wake; !more && int64(log.done) >= sent.Load() {
			break
		}
	}
	if readErr != nil {
		// Unblock a writer stuck in Write against a dead peer.
		c.conn.SetDeadline(time.Now())
	}
	werr := <-writerDone
	log.sent = int(sent.Load())
	return errors.Join(readErr, werr)
}

// time.Sleep on an otherwise idle Go process wakes through epoll_wait,
// whose timeout counts whole milliseconds: a 60 µs sleep was measured to
// take 1.1 ms here. An open-loop sender that late would be measuring
// itself. So each sender pins itself to an OS thread, asks the kernel for
// 1 ns of timer slack on it (the default is 50 µs) and sleeps with
// nanosleep(2) directly: 25 µs late at the median instead of 1 ms.

const prSetTimerSlack = 29 // PR_SET_TIMERSLACK

// sendTick is the open-loop sender's wake-up grid. Waking for every
// request (66 µs apart at the kv rates) cost the two-core reference box
// half a core in context switches and tripled the daemon's p99; a grid
// trades up to one tick of lateness, which is reported, for a generator
// that stays out of the way.
const sendTick = 250 * time.Microsecond

// pinForSleep prepares the calling goroutine for preciseSleep and returns
// the function that undoes it.
func pinForSleep() func() {
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return func() {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0) // 0 restores the thread's default
		runtime.UnlockOSThread()
	}
}

func preciseSleep(ns int64) {
	if ns <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(ns)
	syscall.Nanosleep(&ts, nil)
}

// Summaries.

// samplesOf flattens the completed requests of a phase into samples whose
// latency runs from the due time.
func samplesOf(logs []*connLog) []sample {
	var out []sample
	for _, l := range logs {
		for i := 0; i < l.done; i++ {
			out = append(out, sample{atNs: l.recvNs[i], latNs: l.recvNs[i] - l.dueNs[i]})
		}
	}
	return out
}

// lateness returns, per request sent, how long after its due time the
// generator got it to the kernel.
func lateness(logs []*connLog) []float64 {
	var out []float64
	for _, l := range logs {
		for i := 0; i < l.sent; i++ {
			out = append(out, float64(l.sentNs[i]-l.dueNs[i]))
		}
	}
	return out
}

// backlog counts requests that were due by endNs but had no reply by
// then: the queue an open-loop phase leaves behind.
func backlog(logs []*connLog, streams []*stream, endNs int64) int {
	n := 0
	for c, l := range logs {
		for i := 0; i < streams[c].len() && l.dueNs[i] <= endNs; i++ {
			if i >= l.done || l.recvNs[i] > endNs {
				n++
			}
		}
	}
	return n
}
