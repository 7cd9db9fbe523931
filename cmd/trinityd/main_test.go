package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"trinity/internal/compute/traversal"
	"trinity/internal/graph"
	"trinity/internal/memcloud"
)

func newTestServer(t *testing.T) *server {
	t.Helper()
	cloud := memcloud.New(memcloud.Config{Machines: 2, TrunkCapacity: 1 << 20})
	t.Cleanup(cloud.Close)
	g := graph.New(cloud, true)
	return &server{cloud: cloud, g: g, trav: traversal.New(g), cmdTimeout: 10 * time.Second}
}

// TestExecProtocol pins every reply of the line protocol: the scored
// benchmark and any other client parse these bytes. A want starting with
// "~" is a regular expression; anything else must match exactly. The
// script runs in order against one server — graph verbs first, because
// PAGERANK decodes every cell as a node and a raw SET cell is not one.
func TestExecProtocol(t *testing.T) {
	sv := newTestServer(t)
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
		got := sv.exec(ctx, st.line)
		if pattern, ok := strings.CutPrefix(st.want, "~"); ok {
			if !regexp.MustCompile(pattern).MatchString(got) {
				t.Errorf("%q -> %q, want match of %s", st.line, got, pattern)
			}
		} else if got != st.want {
			t.Errorf("%q -> %q, want %q", st.line, got, st.want)
		}
	}

	metrics := sv.exec(ctx, "METRICS")
	if !json.Valid([]byte(metrics)) || !strings.HasSuffix(metrics, "\n}\n") ||
		!strings.Contains(metrics, `"memcloud.m0.local_ops"`) {
		t.Errorf("METRICS is not the registry's JSON object: %.80q…", metrics)
	}

	down, cancel := context.WithCancel(ctx)
	cancel()
	for _, line := range []string{"GET 1", "QUIT", ""} {
		if got := sv.exec(down, line); got != replyShuttingDown {
			t.Errorf("%q while shutting down -> %q, want %q", line, got, replyShuttingDown)
		}
	}
}

// TestServeConnection drives the connection loop: one reply per command in
// order, nothing for a blank line, and the connection closes after BYE and
// after the shutting-down reply.
func TestServeConnection(t *testing.T) {
	sv := newTestServer(t)
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
