package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Building and running cmd/trinityd, and reading what the operating
// system and the daemon's own registry say about it.

// repoRoot finds the root module (the directory whose go.mod declares
// "module trinity") at or above the working directory, so the benchmark
// runs the same from the repository root and from benchmark/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if bytes.HasPrefix(bytes.TrimSpace(b), []byte("module trinity\n")) {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module trinity at or above the working directory")
		}
		dir = parent
	}
}

// outDir is where everything the benchmark writes goes: the daemon
// binary, trace files, -json output defaults.
func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }

// buildDaemon compiles cmd/trinityd into the out directory and returns
// the binary's path and how long the build took.
func buildDaemon(root string) (string, time.Duration, error) {
	bin := filepath.Join(outDir(root), "trinityd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/trinityd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/trinityd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running trinityd.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // line protocol
	metricsAddr string

	logMu   sync.Mutex
	logBuf  []string // last lines of its log, for failure reports
	gcPause float64  // ms of stop-the-world pauses, summed from gctrace lines
	logEnd  chan struct{}
}

var (
	reServing = regexp.MustCompile(`serving on (\S+)`)
	reMetrics = regexp.MustCompile(`metrics on http://(\S+)/debug/metrics`)
	// "gc 7 @1.118s 0%: 0.12+5.5+0.003 ms clock, ...": the first and third
	// figures are the two stop-the-world phases of the cycle.
	reGCTrace = regexp.MustCompile(`^gc \d+ @\S+ \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock`)
)

// startDaemon launches the binary on ephemeral ports and waits until it
// has logged both addresses, on the processors place gives it. gcTrace
// makes the Go runtime of the daemon log each collection, which is the
// only view of its pauses from outside.
func startDaemon(bin string, machines int, gcTrace bool, place placement) (*daemon, error) {
	cmd := exec.Command(bin,
		"-machines", strconv.Itoa(machines),
		"-listen", "127.0.0.1:0", "-metrics-listen", "127.0.0.1:0")
	if gcTrace {
		cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logEnd: make(chan struct{})}
	if err := place.startOnDaemonCPUs(cmd.Start); err != nil {
		return nil, fmt.Errorf("start trinityd: %w", err)
	}
	children.add(d)
	ready := make(chan struct{})
	go func() {
		defer close(d.logEnd)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			if m := reGCTrace.FindStringSubmatch(line); m != nil {
				a, _ := strconv.ParseFloat(m[1], 64)
				b, _ := strconv.ParseFloat(m[2], 64)
				d.gcPause += a + b
				d.logMu.Unlock()
				continue
			}
			if m := reServing.FindStringSubmatch(line); m != nil {
				d.addr = m[1]
			}
			if m := reMetrics.FindStringSubmatch(line); m != nil {
				d.metricsAddr = m[1]
			}
			if d.logBuf = append(d.logBuf, line); len(d.logBuf) > 20 {
				d.logBuf = d.logBuf[1:]
			}
			both := d.addr != "" && d.metricsAddr != ""
			d.logMu.Unlock()
			if both && !announced {
				announced = true
				close(ready)
			}
		}
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.logEnd:
		d.stop()
		return nil, fmt.Errorf("trinityd exited before listening:\n%s", d.logTail())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("trinityd did not announce its addresses within 20s:\n%s", d.logTail())
	}
}

func (d *daemon) gcPauseMs() float64 {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.gcPause
}

func (d *daemon) logTail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logBuf, "\n")
}

// stop asks the daemon to drain, kills it if it will not, and waits for
// the process and its log reader to end.
func (d *daemon) stop() {
	defer children.remove(d)
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() { <-d.logEnd; d.cmd.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(3 * time.Second):
		d.cmd.Process.Kill()
		<-exited
	}
}

// kill ends the daemon at once; used for the repeated set-up timings and
// on interrupt, where a clean drain is not being measured.
func (d *daemon) kill() {
	defer children.remove(d)
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.logEnd
	d.cmd.Wait()
}

// children tracks live daemons so an interrupt can kill them.
var children = &childSet{set: map[*daemon]bool{}}

type childSet struct {
	mu  sync.Mutex
	set map[*daemon]bool
}

func (c *childSet) add(d *daemon)    { c.mu.Lock(); c.set[d] = true; c.mu.Unlock() }
func (c *childSet) remove(d *daemon) { c.mu.Lock(); delete(c.set, d); c.mu.Unlock() }

func (c *childSet) killAll() {
	c.mu.Lock()
	ds := make([]*daemon, 0, len(c.set))
	for d := range c.set {
		ds = append(ds, d)
	}
	c.mu.Unlock()
	for _, d := range ds {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
		}
	}
}

// Process accounting from /proc.

const clockTick = 100 // USER_HZ; fixed at 100 on every Linux ABI Go supports

// cpuSeconds returns the user+system CPU time a process has used.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; fields
	// are counted from the closing parenthesis. utime and stime are
	// fields 14 and 15, i.e. 12 and 13 after it.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// selfCPUSeconds is the benchmark process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// Registry snapshots.

// counters is an obs registry snapshot flattened to numbers: counters and
// gauges under their own name, histograms as name.count and name.sum.
type counters map[string]float64

// scrape reads the daemon's /debug/metrics.
func (d *daemon) scrape() (counters, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/debug/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return parseMetricsJSON(body)
}

func parseMetricsJSON(body []byte) (counters, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("parse metrics: %w", err)
	}
	out := make(counters, len(raw))
	for name, v := range raw {
		var num float64
		if json.Unmarshal(v, &num) == nil {
			out[name] = num
			continue
		}
		var hist struct{ Count, Sum, P99, Max float64 }
		if json.Unmarshal(v, &hist) == nil {
			out[name+".count"] = hist.Count
			out[name+".sum"] = hist.Sum
			out[name+".p99"] = hist.P99
			out[name+".max"] = hist.Max
		}
	}
	return out, nil
}

// metricKey matches "<layer>.m<N>.<name>" registry names, the per-machine
// scoping every layer but buf, traversal, bsp and view uses.
var metricKey = regexp.MustCompile(`^([a-z]+)\.m\d+\.(.+)$`)

// total sums one metric over all machines: total("msg", "sync_calls")
// adds msg.m0.sync_calls, msg.m1.sync_calls, ...
func (c counters) total(layer, name string) float64 {
	sum := 0.0
	for k, v := range c {
		if m := metricKey.FindStringSubmatch(k); m != nil && m[1] == layer && m[2] == name {
			sum += v
		}
	}
	return sum
}

// max is total's counterpart for quantities that do not add up, such as
// a p99.
func (c counters) max(layer, name string) float64 {
	best := 0.0
	for k, v := range c {
		if m := metricKey.FindStringSubmatch(k); m != nil && m[1] == layer && m[2] == name && v > best {
			best = v
		}
	}
	return best
}

// add accumulates o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// sub returns after-before for every key of after.
func (c counters) sub(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// stats sends STATS and parses "mem=<n>B" and "recoveries=<n>" from the reply.
func (c *client) stats() (mem, recoveries float64, err error) {
	if _, err := c.conn.Write([]byte("STATS\r\n")); err != nil {
		return 0, 0, err
	}
	c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.conn.SetReadDeadline(time.Time{})
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("read STATS: %w", err)
	}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, "mem="); ok {
			mem, _ = strconv.ParseFloat(strings.TrimSuffix(v, "B"), 64)
		}
		if v, ok := strings.CutPrefix(f, "recoveries="); ok {
			recoveries, _ = strconv.ParseFloat(v, 64)
		}
	}
	if mem == 0 {
		return 0, 0, fmt.Errorf("STATS reply without mem=: %q", line)
	}
	return mem, recoveries, nil
}
