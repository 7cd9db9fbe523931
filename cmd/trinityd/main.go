// Command trinityd hosts a Trinity memory cloud and serves it to external
// clients over a line-oriented TCP protocol — the "Trinity client"
// interaction tier of the paper's Figure 1, where applications link a
// client library and talk to the slave tier over the network.
//
// Start a daemon:
//
//	trinityd -machines 8 -listen 127.0.0.1:7700
//
// Then from any TCP client (e.g. nc):
//
//	SET 42 hello          -> OK
//	GET 42                -> VALUE hello
//	APPEND 42 ,world      -> OK
//	DEL 42                -> OK
//	ADDNODE 7             -> OK
//	ADDEDGE 7 42          -> OK            (both nodes must exist)
//	KHOP <node> <hops>    -> VISITED <n>   (over cells that are graph nodes)
//	PAGERANK [iters]      -> OK supersteps=<n> ranked=<n>  (BSP over the graph)
//	STATS                 -> cluster counters
//	METRICS               -> full observability registry as JSON
//	QUIT
//
// Keys are decimal cell IDs; values are raw bytes to end of line.
//
// A request enters the cloud where the paper's Figure 1 sends it: SET,
// APPEND, GET and DEL run on the machine the addressing table names for
// the key's trunk, so they apply to a local trunk with no hop between
// machines. ADDNODE runs on the node's owner and ADDEDGE on the source's
// owner, so the out-link append is local and only an in-link on another
// machine crosses the bus. KHOP and PAGERANK enter at machine 0 and reach
// the other machines through the graph layer.
//
// The same registry snapshot is served over HTTP (expvar-style) at
// http://<metrics-listen>/debug/metrics, so dashboards and curl can poll
// the daemon without speaking the line protocol.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"trinity/internal/algo"
	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/obs"
)

func main() {
	machines := flag.Int("machines", 4, "simulated machines in the cloud")
	listen := flag.String("listen", "127.0.0.1:7700", "client listen address")
	metricsListen := flag.String("metrics-listen", "127.0.0.1:7701",
		"HTTP metrics listen address serving /debug/metrics (empty disables)")
	cmdTimeout := flag.Duration("cmd-timeout", 30*time.Second,
		"deadline of each ADDNODE, ADDEDGE, PAGERANK and KHOP, propagated over the wire; 0 disables "+
			"(SET, GET, APPEND and DEL are bounded by the message layer's call timeout)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second,
		"grace period for in-flight work on SIGINT/SIGTERM")
	flag.Parse()

	// ctx is the daemon's root: SIGINT/SIGTERM cancels it, which drains
	// the servers instead of dying mid-frame.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	metrics := obs.Default()
	cloud := memcloud.New(memcloud.Config{Machines: *machines, Metrics: metrics})
	g := graph.New(cloud, true)
	trav := traversal.New(g)

	var metricsSrv *http.Server
	if *metricsListen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			metrics.WriteJSON(w)
		})
		ml, err := net.Listen("tcp", *metricsListen)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("trinityd: metrics on http://%s/debug/metrics", ml.Addr())
		metricsSrv = &http.Server{Handler: mux}
		go metricsSrv.Serve(ml)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("trinityd: %d-machine memory cloud serving on %s", *machines, l.Addr())

	sv := &server{cloud: cloud, g: g, trav: trav, cmdTimeout: *cmdTimeout}
	var conns sync.WaitGroup
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed during shutdown
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				sv.serve(ctx, conn)
			}()
		}
	}()

	<-ctx.Done()
	log.Printf("trinityd: signal received, draining (timeout %v)", *drainTimeout)
	// The root ctx is spent; shutdown gets its own budget.
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	l.Close()
	if metricsSrv != nil {
		if err := metricsSrv.Shutdown(shCtx); err != nil {
			log.Printf("trinityd: metrics shutdown: %v", err)
		}
	}
	// Wait out in-flight commands (they observe the cancelled root ctx and
	// return quickly), bounded by the drain budget.
	drained := make(chan struct{})
	go func() { conns.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-shCtx.Done():
		log.Printf("trinityd: drain timeout, closing with connections active")
	}
	// Flush every machine's outbox so acknowledged writes are on the wire,
	// then tear the cloud down cleanly.
	for i := 0; i < cloud.Slaves(); i++ {
		cloud.Slave(i).Node().Flush()
	}
	cloud.Close()
	log.Printf("trinityd: shutdown complete")
}

// server is what a client connection executes commands against.
type server struct {
	cloud      *memcloud.Cloud
	g          *graph.Graph
	trav       *traversal.Engine
	cmdTimeout time.Duration
}

// Fixed replies. The connection closes after replyBye and
// replyShuttingDown; replyOK is a constant because it answers every write
// on the serving hot path.
const (
	replyOK           = "OK\r\n"
	replyBye          = "BYE\r\n"
	replyShuttingDown = "ERR shutting down\r\n"
)

// serve is the connection loop: one line in, exec, one flush out. A blank
// line writes nothing, and flushing an empty buffer is no write.
func (sv *server) serve(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		done := sv.exec(ctx, sc.Bytes(), w)
		if w.Flush() != nil || done {
			return
		}
	}
}

// replyf writes one formatted reply line.
func replyf(w *bufio.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\r\n", args...)
}

// cmdCtx derives one graph command's context: the daemon root (so
// shutdown aborts in-flight commands) bounded by the per-command
// deadline, which Call propagates over the wire.
func (sv *server) cmdCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if sv.cmdTimeout > 0 {
		return context.WithTimeout(ctx, sv.cmdTimeout)
	}
	return context.WithCancel(ctx)
}

// owner returns the machine a request on key enters at: the one the
// addressing table names for the key's trunk (the paper's Figure 1), so
// Slave.do applies a key-value op to a local trunk with no msg.Call, and
// the graph layer appends to a local node cell in place. Should the
// tables disagree during a failover, do still re-routes through Reroute.
// trinityd has no verb that stops a single machine, so the owner picked
// here is always live; a future kill verb must revisit this, since a
// killed machine's slave still holds its old table and trunks.
func (sv *server) owner(key uint64) int {
	return int(sv.cloud.Slave(0).Owner(key))
}

// parseKey parses a decimal cell ID.
func parseKey(b []byte) (uint64, error) {
	return strconv.ParseUint(string(b), 10, 64)
}

// exec runs one command line and writes its exact reply bytes to w
// (terminator included; nothing for a blank line). It reports whether the
// connection closes after the reply. line is only valid during the call:
// SET and APPEND hand their value to Put and Append, which copy it before
// returning (into the owner's trunk, into the request frame on a
// re-route, into the log record under buffered logging). SET, APPEND, GET
// and DEL enter at the key's owner and run under ctx itself: a local op
// has no wait to bound, and every wait of a re-routed one is bounded
// already (msg.Call by CallTimeout, Reroute's report and refresh by
// FailureTimeout and CallTimeout). The graph verbs run under cmdCtx:
// ADDNODE at the node's owner, ADDEDGE at the source's, KHOP and PAGERANK
// at machine 0.
func (sv *server) exec(ctx context.Context, line []byte, w *bufio.Writer) (done bool) {
	if ctx.Err() != nil {
		w.WriteString(replyShuttingDown)
		return true
	}
	cmd, rest, _ := bytes.Cut(line, []byte(" "))
	// Upper-case the verb without allocating. PAGERANK, the longest verb,
	// fits; a longer word is no verb and stays as it is.
	verb := cmd
	var up [8]byte
	if len(cmd) <= len(up) {
		verb = up[:len(cmd)]
		for i, c := range cmd {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			verb[i] = c
		}
	}
	switch string(verb) {
	case "SET", "APPEND":
		keyStr, val, ok := bytes.Cut(rest, []byte(" "))
		key, err := parseKey(keyStr)
		if !ok || err != nil {
			replyf(w, "ERR usage: %s <key> <value>", string(verb))
			return false
		}
		if s := sv.cloud.Slave(sv.owner(key)); string(verb) == "SET" {
			err = s.Put(ctx, key, val)
		} else {
			err = s.Append(ctx, key, val)
		}
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString(replyOK)
	case "GET":
		key, err := parseKey(bytes.TrimSpace(rest))
		if err != nil {
			replyf(w, "ERR usage: GET <key>")
			return false
		}
		val, err := sv.cloud.Slave(sv.owner(key)).Get(ctx, key)
		if errors.Is(err, memcloud.ErrNotFound) {
			replyf(w, "NOT_FOUND")
			return false
		}
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString("VALUE ")
		w.Write(val)
		w.WriteString("\r\n")
	case "DEL":
		key, err := parseKey(bytes.TrimSpace(rest))
		if err != nil {
			replyf(w, "ERR usage: DEL <key>")
			return false
		}
		err = sv.cloud.Slave(sv.owner(key)).Remove(ctx, key)
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString(replyOK)
	case "ADDNODE":
		key, err := parseKey(bytes.TrimSpace(rest))
		if err != nil {
			replyf(w, "ERR usage: ADDNODE <id>")
			return false
		}
		cctx, cancel := sv.cmdCtx(ctx)
		err = sv.g.On(sv.owner(key)).PutNode(cctx, &graph.Node{ID: key})
		cancel()
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString(replyOK)
	case "ADDEDGE":
		parts := bytes.Fields(rest)
		if len(parts) != 2 {
			replyf(w, "ERR usage: ADDEDGE <src> <dst>")
			return false
		}
		src, err1 := parseKey(parts[0])
		dst, err2 := parseKey(parts[1])
		if err1 != nil || err2 != nil {
			replyf(w, "ERR usage: ADDEDGE <src> <dst>")
			return false
		}
		cctx, cancel := sv.cmdCtx(ctx)
		err := sv.g.On(sv.owner(src)).AddEdge(cctx, src, dst)
		cancel()
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString(replyOK)
	case "PAGERANK":
		iters := 5
		if rest = bytes.TrimSpace(rest); len(rest) != 0 {
			n, err := strconv.Atoi(string(rest))
			if err != nil || n < 1 {
				replyf(w, "ERR usage: PAGERANK [iters]")
				return false
			}
			iters = n
		}
		cctx, cancel := sv.cmdCtx(ctx)
		res, err := algo.PageRank(cctx, sv.g, iters, 0)
		cancel()
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		replyf(w, "OK supersteps=%d ranked=%d", res.Supersteps, len(res.Ranks))
	case "KHOP":
		parts := bytes.Fields(rest)
		if len(parts) != 2 {
			replyf(w, "ERR usage: KHOP <node> <hops>")
			return false
		}
		node, err1 := parseKey(parts[0])
		hops, err2 := strconv.Atoi(string(parts[1]))
		if err1 != nil || err2 != nil {
			replyf(w, "ERR usage: KHOP <node> <hops>")
			return false
		}
		cctx, cancel := sv.cmdCtx(ctx)
		n, err := sv.trav.KHopNeighborhoodSize(cctx, 0, node, hops)
		cancel()
		if err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		replyf(w, "VISITED %d", n)
	case "STATS":
		st := sv.cloud.Stats()
		replyf(w, "STATS local=%d remote=%d retries=%d recoveries=%d mem=%dB",
			st.LocalOps, st.RemoteOps, st.Retries, st.Recoveries, sv.cloud.MemoryUsage())
	case "METRICS":
		sv.cloud.Metrics().WriteJSON(w)
	case "BACKUP":
		if err := sv.cloud.Backup(); err != nil {
			replyf(w, "ERR %v", err)
			return false
		}
		w.WriteString(replyOK)
	case "QUIT":
		w.WriteString(replyBye)
		return true
	case "":
	default:
		replyf(w, "ERR unknown command %q", cmd)
	}
	return false
}
