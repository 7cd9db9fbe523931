package main

import "fmt"

// Output verification. Each model replays what a phase sent, in
// per-connection order, and checks every reply against what the system
// must have answered.

// tally accumulates the verdict of a run.
type tally struct {
	attempted int64
	failed    int64
	notes     []string // the first few failures, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.notes) < 8 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// require records one checked invariant.
func (t *tally) require(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 8 {
			t.notes = append(t.notes, n)
		}
	}
}

// checkTransport charges a connection-level failure; requests it left
// unanswered are charged one by one by the caller. Where no request may
// be answered ERR, the text of the first such answer goes into the notes.
func (t *tally) checkTransport(phase string, logs []*connLog, errExpected bool) {
	for c, l := range logs {
		t.require(l.err == nil, "%s: connection %d: %v", phase, c, l.err)
		if l.errMsg != "" && !errExpected && len(t.notes) < 8 {
			t.notes = append(t.notes, fmt.Sprintf("%s: connection %d: first error reply: %s", phase, c, l.errMsg))
		}
	}
}

// kvModel is the single-writer-per-key model of the key-value workloads:
// key k is written only by connection k mod nconn, so that connection's
// own GETs must return exactly the state its earlier writes produced,
// and any other connection's GET must return some state the key has had.
type kvModel struct {
	nconn int
	hash  []uint64 // current state per key: FNV-1a of the value
	size  []uint32
	seen  map[[2]uint64]struct{} // every (key, state) that has been current
}

func newKVModel(nkeys, nconn int) *kvModel {
	return &kvModel{
		nconn: nconn, hash: make([]uint64, nkeys), size: make([]uint32, nkeys),
		seen: make(map[[2]uint64]struct{}, nkeys),
	}
}

func (m *kvModel) write(r request) {
	switch r.kind {
	case opSet:
		m.hash[r.key], m.size[r.key] = r.aux, r.size
	case opAppend:
		chunk := chunkBytes(r.aux)
		m.hash[r.key] = fnvAdd(m.hash[r.key], chunk[:])
		m.size[r.key] += chunkSize
	}
	m.seen[[2]uint64{r.key, m.hash[r.key]}] = struct{}{}
}

// check verifies one phase and advances the model by what it sent.
func (m *kvModel) check(phase string, streams []*stream, logs []*connLog) tally {
	var t tally
	t.checkTransport(phase, logs, false)
	type foreign struct{ conn, i int }
	var later []foreign
	for c, l := range logs {
		reqs := streams[c].reqs
		for i := 0; i < l.sent; i++ {
			r := reqs[i]
			t.attempted++
			if i >= l.done {
				t.fail("%s: connection %d request %d: no reply", phase, c, i)
				if r.kind != opGet {
					m.write(r)
				}
				continue
			}
			switch r.kind {
			case opSet, opAppend:
				m.write(r)
				if l.kind[i] != replyOK {
					t.fail("%s: write of key %d answered kind %d, want OK", phase, r.key, l.kind[i])
				}
			case opGet:
				if int(r.key%uint64(m.nconn)) != c {
					later = append(later, foreign{c, i})
					continue
				}
				if l.kind[i] != replyValue || l.val[i] != m.hash[r.key] || l.size[i] != m.size[r.key] {
					t.fail("%s: GET of own key %d returned kind %d, %d bytes, hash %x; want %d bytes, hash %x",
						phase, r.key, l.kind[i], l.size[i], l.val[i], m.size[r.key], m.hash[r.key])
				}
			}
		}
	}
	// Reads of other connections' keys race with their writers, so they
	// are judged once every write of the phase is in the history.
	for _, f := range later {
		l, r := logs[f.conn], streams[f.conn].reqs[f.i]
		_, known := m.seen[[2]uint64{r.key, l.val[f.i]}]
		if l.kind[f.i] != replyValue || !known {
			t.fail("%s: GET of key %d returned kind %d, hash %x: not a value that key ever held",
				phase, r.key, l.kind[f.i], l.val[f.i])
		}
	}
	return t
}

// userBytes is the key and value bytes live in the store.
func (m *kvModel) userBytes() float64 {
	total := 0.0
	for _, s := range m.size {
		total += 8 + float64(s)
	}
	return total
}

// graphModel checks KHOP replies against a sequential breadth-first
// search over the generated edge list. Edges added during a phase may or
// may not be visible to a concurrent query, so a reply must lie between
// the count on the graph as the phase began and the count on the graph
// as it ended; with no edge added the two agree and the check is exact.
type graphModel struct {
	base  *csr
	extra map[uint32][]uint32 // edges added after the preload
	edges int                 // live edge count, for the space metric

	mark  []uint32 // visit stamps
	stamp uint32
	queue []uint32
}

func newGraphModel(nodes int, edges []edge) *graphModel {
	return &graphModel{
		base: buildCSR(nodes, edges), extra: map[uint32][]uint32{},
		edges: len(edges), mark: make([]uint32, nodes),
	}
}

// khop counts the distinct nodes within hops of start, start included.
func (m *graphModel) khop(start uint32, hops int) int {
	m.stamp++
	m.mark[start] = m.stamp
	m.queue = append(m.queue[:0], start)
	visited, head := 1, 0
	for h := 0; h < hops; h++ {
		end := len(m.queue)
		if head == end {
			break
		}
		for ; head < end; head++ {
			v := m.queue[head]
			visit := func(d uint32) {
				if m.mark[d] != m.stamp {
					m.mark[d] = m.stamp
					m.queue = append(m.queue, d)
					visited++
				}
			}
			for _, d := range m.base.out(v) {
				visit(d)
			}
			for _, d := range m.extra[v] {
				visit(d)
			}
		}
	}
	return visited
}

func (m *graphModel) check(phase string, streams []*stream, logs []*connLog) tally {
	var t tally
	t.checkTransport(phase, logs, false)
	type query struct {
		node uint32
		hops uint8
	}
	bounds := func() map[query]int {
		out := map[query]int{}
		for c, l := range logs {
			for i := 0; i < l.sent; i++ {
				if r := streams[c].reqs[i]; r.kind == opKhop {
					q := query{uint32(r.key), r.hops}
					if _, ok := out[q]; !ok {
						out[q] = m.khop(q.node, int(q.hops))
					}
				}
			}
		}
		return out
	}
	lo := bounds()
	added := 0
	for c, l := range logs {
		for i := 0; i < l.sent; i++ {
			if r := streams[c].reqs[i]; r.kind == opAddEdge {
				m.extra[uint32(r.key)] = append(m.extra[uint32(r.key)], uint32(r.aux))
				added++
			}
		}
	}
	hi := lo
	if added > 0 {
		m.edges += added
		hi = bounds()
	}
	for c, l := range logs {
		for i := 0; i < l.sent; i++ {
			r := streams[c].reqs[i]
			t.attempted++
			if i >= l.done {
				t.fail("%s: connection %d request %d: no reply", phase, c, i)
				continue
			}
			switch r.kind {
			case opAddNode, opAddEdge:
				if l.kind[i] != replyOK {
					t.fail("%s: graph write answered kind %d, want OK", phase, l.kind[i])
				}
			case opKhop:
				q := query{uint32(r.key), r.hops}
				if n := int(l.val[i]); l.kind[i] != replyVisited || n < lo[q] || n > hi[q] {
					t.fail("%s: KHOP %d %d answered kind %d, %d visited; want %d..%d",
						phase, r.key, r.hops, l.kind[i], n, lo[q], hi[q])
				}
			}
		}
	}
	return t
}

// userBytes counts 8 bytes per node id and 8 per edge endpoint id.
func (m *graphModel) userBytes() float64 {
	return 8 * float64(m.base.nodes()+m.edges)
}

// checkAll verifies a phase in which every request must draw the same
// kind of reply: OK for the graph preload, ERR for the unknown-verb probe.
func checkAll(phase string, logs []*connLog, want replyKind) tally {
	var t tally
	t.checkTransport(phase, logs, want == replyErr)
	for c, l := range logs {
		for i := 0; i < l.sent; i++ {
			t.require(i < l.done && l.kind[i] == want, "%s: connection %d request %d not answered with kind %d", phase, c, i, want)
		}
	}
	return t
}
