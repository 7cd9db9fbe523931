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
//	KHOP <node> <hops>    -> VISITED <n>   (over cells that are graph nodes)
//	PAGERANK [iters]      -> OK supersteps=<n> ranked=<n>  (BSP over the graph)
//	STATS                 -> cluster counters
//	METRICS               -> full observability registry as JSON
//	QUIT
//
// Keys are decimal cell IDs; values are raw bytes to end of line.
//
// The same registry snapshot is served over HTTP (expvar-style) at
// http://<metrics-listen>/debug/metrics, so dashboards and curl can poll
// the daemon without speaking the line protocol.
package main

import (
	"bufio"
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
	"strings"
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
		"per-command deadline (propagated over the wire; 0 disables)")
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

// serve is the connection loop: one line in, exec, one write and one flush
// out.
func (sv *server) serve(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		out := sv.exec(ctx, sc.Text())
		if out == "" {
			continue
		}
		w.WriteString(out)
		if w.Flush() != nil || out == replyBye || out == replyShuttingDown {
			return
		}
	}
}

// reply formats one reply line.
func reply(format string, args ...any) string {
	return fmt.Sprintf(format+"\r\n", args...)
}

// cmdCtx derives one command's context: the daemon root (so shutdown
// aborts in-flight commands) bounded by the per-command deadline, which
// Call propagates over the wire.
func (sv *server) cmdCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if sv.cmdTimeout > 0 {
		return context.WithTimeout(ctx, sv.cmdTimeout)
	}
	return context.WithCancel(ctx)
}

// exec runs one command line and returns the exact bytes to send back
// (terminator included; empty for a blank line).
func (sv *server) exec(ctx context.Context, line string) string {
	if ctx.Err() != nil {
		return replyShuttingDown
	}
	s := sv.cloud.Slave(0)
	cmd, rest, _ := strings.Cut(line, " ")
	switch strings.ToUpper(cmd) {
	case "SET", "APPEND":
		keyStr, val, ok := strings.Cut(rest, " ")
		key, err := strconv.ParseUint(keyStr, 10, 64)
		if !ok || err != nil {
			return reply("ERR usage: %s <key> <value>", strings.ToUpper(cmd))
		}
		cctx, cancel := sv.cmdCtx(ctx)
		if strings.EqualFold(cmd, "SET") {
			err = s.Put(cctx, key, []byte(val))
		} else {
			err = s.Append(cctx, key, []byte(val))
		}
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return replyOK
	case "GET":
		key, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return reply("ERR usage: GET <key>")
		}
		cctx, cancel := sv.cmdCtx(ctx)
		val, err := s.Get(cctx, key)
		cancel()
		if errors.Is(err, memcloud.ErrNotFound) {
			return reply("NOT_FOUND")
		}
		if err != nil {
			return reply("ERR %v", err)
		}
		return "VALUE " + string(val) + "\r\n"
	case "DEL":
		key, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return reply("ERR usage: DEL <key>")
		}
		cctx, cancel := sv.cmdCtx(ctx)
		err = s.Remove(cctx, key)
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return replyOK
	case "ADDNODE":
		key, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			return reply("ERR usage: ADDNODE <id>")
		}
		cctx, cancel := sv.cmdCtx(ctx)
		err = sv.g.On(0).PutNode(cctx, &graph.Node{ID: key})
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return replyOK
	case "ADDEDGE":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return reply("ERR usage: ADDEDGE <src> <dst>")
		}
		src, err1 := strconv.ParseUint(parts[0], 10, 64)
		dst, err2 := strconv.ParseUint(parts[1], 10, 64)
		if err1 != nil || err2 != nil {
			return reply("ERR usage: ADDEDGE <src> <dst>")
		}
		cctx, cancel := sv.cmdCtx(ctx)
		err := sv.g.On(0).AddEdge(cctx, src, dst)
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return replyOK
	case "PAGERANK":
		iters := 5
		if rest = strings.TrimSpace(rest); rest != "" {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 1 {
				return reply("ERR usage: PAGERANK [iters]")
			}
			iters = n
		}
		cctx, cancel := sv.cmdCtx(ctx)
		res, err := algo.PageRank(cctx, sv.g, iters, 0)
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return reply("OK supersteps=%d ranked=%d", res.Supersteps, len(res.Ranks))
	case "KHOP":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return reply("ERR usage: KHOP <node> <hops>")
		}
		node, err1 := strconv.ParseUint(parts[0], 10, 64)
		hops, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return reply("ERR usage: KHOP <node> <hops>")
		}
		cctx, cancel := sv.cmdCtx(ctx)
		n, err := sv.trav.KHopNeighborhoodSize(cctx, 0, node, hops)
		cancel()
		if err != nil {
			return reply("ERR %v", err)
		}
		return reply("VISITED %d", n)
	case "STATS":
		st := sv.cloud.Stats()
		return reply("STATS local=%d remote=%d retries=%d recoveries=%d mem=%dB",
			st.LocalOps, st.RemoteOps, st.Retries, st.Recoveries, sv.cloud.MemoryUsage())
	case "METRICS":
		var b strings.Builder
		sv.cloud.Metrics().WriteJSON(&b)
		return b.String()
	case "BACKUP":
		if err := sv.cloud.Backup(); err != nil {
			return reply("ERR %v", err)
		}
		return replyOK
	case "QUIT":
		return replyBye
	case "":
		return ""
	default:
		return reply("ERR unknown command %q", cmd)
	}
}
