package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func newTestServer(t *testing.T, machines int) *server {
	t.Helper()
	cloud := memcloud.New(memcloud.Config{Machines: machines, TrunkCapacity: 1 << 20})
	t.Cleanup(cloud.Close)
	g := graph.New(cloud, true)
	return &server{cloud: cloud, g: g, trav: traversal.New(g), cmdTimeout: 10 * time.Second}
}

// run executes one line and returns the bytes exec wrote.
func run(ctx context.Context, sv *server, line string) string {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	sv.exec(ctx, []byte(line), w)
	w.Flush()
	return b.String()
}

// TestExecProtocol pins every reply of the line protocol: the scored
// benchmark and any other client parse these bytes. A want starting with
// "~" is a regular expression; anything else must match exactly. The
// script runs in order against one server — graph verbs first, because
// PAGERANK decodes every cell as a node and a raw SET cell is not one.
func TestExecProtocol(t *testing.T) {
	sv := newTestServer(t, 2)
	ctx := context.Background()
	script := []struct{ line, want string }{
		{"", ""},

		{"ADDNODE 1", "OK\r\n"},
		{"ADDNODE 2", "OK\r\n"},
		{"addnode 3", "OK\r\n"},
		{"ADDNODE", "ERR usage: ADDNODE <id>\r\n"},
		{"ADDNODE x", "ERR usage: ADDNODE <id>\r\n"},
		{"ADDEDGE 1 2", "OK\r\n"},
		{"ADDEDGE 2 3", "OK\r\n"},
		{"ADDEDGE 1", "ERR usage: ADDEDGE <src> <dst>\r\n"},
		{"ADDEDGE a b", "ERR usage: ADDEDGE <src> <dst>\r\n"},
		{"ADDEDGE 99 1", "ERR graph: no such node: 99\r\n"},
		{"KHOP 1 1", "VISITED 2\r\n"},
		{"KHOP 1 2", "VISITED 3\r\n"},
		{"KHOP 1", "ERR usage: KHOP <node> <hops>\r\n"},
		{"KHOP a b", "ERR usage: KHOP <node> <hops>\r\n"},
		{"PAGERANK 3", `~^OK supersteps=\d+ ranked=3` + "\r\n$"},
		{"PAGERANK", `~^OK supersteps=\d+ ranked=3` + "\r\n$"},
		{"PAGERANK 0", "ERR usage: PAGERANK [iters]\r\n"},
		{"PAGERANK x", "ERR usage: PAGERANK [iters]\r\n"},

		{"GET 42", "NOT_FOUND\r\n"},
		{"SET 42 hello", "OK\r\n"},
		{"GET 42", "VALUE hello\r\n"},
		{"APPEND 42 , world", "OK\r\n"},
		{"get 42", "VALUE hello, world\r\n"},
		{"SET 42", "ERR usage: SET <key> <value>\r\n"},
		{"SET x y", "ERR usage: SET <key> <value>\r\n"},
		{"set", "ERR usage: SET <key> <value>\r\n"},
		{"APPEND 42", "ERR usage: APPEND <key> <value>\r\n"},
		{"APPEND 43 x", "ERR memcloud: cell not found\r\n"},
		{"GET", "ERR usage: GET <key>\r\n"},
		{"GET x", "ERR usage: GET <key>\r\n"},
		{"DEL 42", "OK\r\n"},
		{"DEL 42", "ERR memcloud: cell not found\r\n"},
		{"DEL x", "ERR usage: DEL <key>\r\n"},
		{"GET 42", "NOT_FOUND\r\n"},

		{"STATS", `~^STATS local=\d+ remote=\d+ retries=0 recoveries=0 mem=\d+B` + "\r\n$"},
		{"BACKUP", "OK\r\n"},
		{"BOGUS 1 2", "ERR unknown command \"BOGUS\"\r\n"},
		{"QUIT", replyBye},
	}
	for _, st := range script {
		got := run(ctx, sv, st.line)
		if pattern, ok := strings.CutPrefix(st.want, "~"); ok {
			if !regexp.MustCompile(pattern).MatchString(got) {
				t.Errorf("%q -> %q, want match of %s", st.line, got, pattern)
			}
		} else if got != st.want {
			t.Errorf("%q -> %q, want %q", st.line, got, st.want)
		}
	}

	metrics := run(ctx, sv, "METRICS")
	if !json.Valid([]byte(metrics)) || !strings.HasSuffix(metrics, "\n}\n") ||
		!strings.Contains(metrics, `"memcloud.m0.local_ops"`) {
		t.Errorf("METRICS is not the registry's JSON object: %.80q…", metrics)
	}

	down, cancel := context.WithCancel(ctx)
	cancel()
	for _, line := range []string{"GET 1", "QUIT", ""} {
		if got := run(down, sv, line); got != replyShuttingDown {
			t.Errorf("%q while shutting down -> %q, want %q", line, got, replyShuttingDown)
		}
	}
}

// TestServeConnection drives the connection loop: one reply per command in
// order, nothing for a blank line, and the connection closes after BYE and
// after the shutting-down reply.
func TestServeConnection(t *testing.T) {
	sv := newTestServer(t, 2)
	dial := func(ctx context.Context) (net.Conn, *bufio.Reader) {
		client, srv := net.Pipe()
		go sv.serve(ctx, srv)
		t.Cleanup(func() { client.Close() })
		client.SetDeadline(time.Now().Add(10 * time.Second))
		return client, bufio.NewReader(client)
	}
	expect := func(r *bufio.Reader, want string) {
		t.Helper()
		if got, err := r.ReadString('\n'); got != want {
			t.Fatalf("read %q (err %v), want %q", got, err, want)
		}
	}

	client, r := dial(context.Background())
	if _, err := client.Write([]byte("SET 7 seven\r\n\r\nGET 7\n")); err != nil {
		t.Fatal(err)
	}
	expect(r, "OK\r\n")
	expect(r, "VALUE seven\r\n")
	if _, err := client.Write([]byte("QUIT\r\n")); err != nil {
		t.Fatal(err)
	}
	expect(r, replyBye)
	expect(r, "") // EOF: the server hung up

	down, cancel := context.WithCancel(context.Background())
	client, r = dial(down)
	cancel()
	if _, err := client.Write([]byte("GET 7\r\n")); err != nil {
		t.Fatal(err)
	}
	expect(r, replyShuttingDown)
	expect(r, "")
}

// TestKVVerbsEnterAtOwner checks that SET, GET, APPEND and DEL run on the
// key's owner: across a 4-machine cloud not one op crosses the bus.
func TestKVVerbsEnterAtOwner(t *testing.T) {
	sv := newTestServer(t, 4)
	ctx := context.Background()
	const keys = 1000
	owners := map[msg.MachineID]bool{}
	for k := uint64(1); k <= keys; k++ {
		owners[sv.cloud.Slave(0).Owner(k)] = true
		v := strconv.FormatUint(k*7, 10)
		for _, st := range []struct{ line, want string }{
			{fmt.Sprintf("SET %d v%s", k, v), "OK\r\n"},
			{fmt.Sprintf("GET %d", k), "VALUE v" + v + "\r\n"},
			{fmt.Sprintf("APPEND %d ,%d", k, k), "OK\r\n"},
			{fmt.Sprintf("GET %d", k), fmt.Sprintf("VALUE v%s,%d\r\n", v, k)},
			{fmt.Sprintf("DEL %d", k), "OK\r\n"},
		} {
			if got := run(ctx, sv, st.line); got != st.want {
				t.Fatalf("%q -> %q, want %q", st.line, got, st.want)
			}
		}
	}
	if !owners[0] || !owners[3] {
		t.Fatalf("keys 1..%d cover owners %v; want machines 0 and 3 among them", keys, owners)
	}
	st := sv.cloud.Stats()
	if st.RemoteOps != 0 || st.LocalOps != 5*keys {
		t.Errorf("local=%d remote=%d, want local=%d remote=0", st.LocalOps, st.RemoteOps, 5*keys)
	}
}

// TestGraphVerbsEnterAtOwner checks that ADDNODE runs on the node's owner
// and ADDEDGE on the source's: no node write crosses the bus, and an edge
// makes exactly one call, for the in-link, when its endpoints live on
// different machines.
func TestGraphVerbsEnterAtOwner(t *testing.T) {
	sv := newTestServer(t, 4)
	ctx := context.Background()
	syncCalls := func() (n int64) {
		for i := 0; i < sv.cloud.Slaves(); i++ {
			n += sv.cloud.Slave(i).Node().Stats().SyncCalls
		}
		return n
	}
	const nodes = 200
	before := syncCalls()
	for id := 1; id <= nodes; id++ {
		if got := run(ctx, sv, fmt.Sprintf("ADDNODE %d", id)); got != "OK\r\n" {
			t.Fatalf("ADDNODE %d -> %q", id, got)
		}
	}
	if st := sv.cloud.Stats(); st.RemoteOps != 0 || st.LocalOps != nodes {
		t.Errorf("ADDNODE: local=%d remote=%d, want local=%d remote=0", st.LocalOps, st.RemoteOps, nodes)
	}
	var cross int64
	for src := uint64(1); src <= nodes; src++ {
		dst := src%nodes + 1
		if sv.owner(src) != sv.owner(dst) {
			cross++
		}
		if got := run(ctx, sv, fmt.Sprintf("ADDEDGE %d %d", src, dst)); got != "OK\r\n" {
			t.Fatalf("ADDEDGE %d %d -> %q", src, dst, got)
		}
	}
	if cross == 0 || cross == nodes {
		t.Fatalf("%d of %d edges cross machines; want some of each", cross, nodes)
	}
	if got := syncCalls() - before; got != cross {
		t.Errorf("%d sync calls for %d edges, want one per cross-machine edge (%d)", got, nodes, cross)
	}
	if got := run(ctx, sv, "KHOP 1 3"); got != "VISITED 4\r\n" {
		t.Errorf("KHOP 1 3 on the ring -> %q, want VISITED 4", got)
	}
}

// TestExecAllocs pins the per-line cost of the key-value verbs: the line
// is parsed in place, a value goes to Put as it is, and a GET reply is
// written straight into the connection's buffer, and no per-command
// context is derived. What is left is, for GET, the value read from the
// trunk.
func TestExecAllocs(t *testing.T) {
	sv := newTestServer(t, 2)
	ctx := context.Background()
	w := bufio.NewWriter(io.Discard)
	set := []byte("SET 42 " + strings.Repeat("v", 128))
	get := []byte("GET 42")
	for _, c := range []struct {
		line []byte
		max  float64
	}{{set, 0}, {get, 1}} {
		if got := testing.AllocsPerRun(200, func() { sv.exec(ctx, c.line, w) }); got > c.max {
			t.Errorf("%.3s: %.1f allocations per line, want at most %.0f", c.line, got, c.max)
		}
	}
	if got := run(ctx, sv, "GET 42"); got != "VALUE "+strings.Repeat("v", 128)+"\r\n" {
		t.Errorf("GET 42 -> %.20q…", got)
	}
}
