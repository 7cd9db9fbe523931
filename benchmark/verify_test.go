package main

import "testing"

// answer builds the log a correct server would produce for streams, by
// running the same model the verifier uses forward.
func answer(streams []*stream, nkeys int) []*connLog {
	state := newKVModel(nkeys, len(streams))
	logs := make([]*connLog, len(streams))
	for c, s := range streams {
		l := newConnLog(s.len())
		for i, r := range s.reqs {
			switch r.kind {
			case opGet:
				l.kind[i], l.val[i], l.size[i] = replyValue, state.hash[r.key], state.size[r.key]
			default:
				state.write(r)
				l.kind[i] = replyOK
			}
		}
		l.sent, l.done = s.len(), s.len()
		logs[c] = l
	}
	return logs
}

func TestKVModelAcceptsCorrectAndCatchesWrong(t *testing.T) {
	sp := specByName("kv_write").smoke()
	w := newWorkloadGen(&sp, 3, 1).(*kvWorkload) // one connection: every key is its own
	pre := w.preload()[0]
	mix := w.mix(2000, false)
	all := []*stream{{buf: append(append([]byte{}, pre[0].buf...), mix[0].buf...)}}
	all[0].reqs = append(append([]request{}, pre[0].reqs...), mix[0].reqs...)
	for _, e := range pre[0].end {
		all[0].end = append(all[0].end, e)
	}
	for _, e := range mix[0].end {
		all[0].end = append(all[0].end, e+uint32(len(pre[0].buf)))
	}

	logs := answer(all, len(w.model.hash))
	if got := newKVModel(len(w.model.hash), 1).check("t", all, logs); got.failed != 0 || got.attempted < int64(all[0].len()) {
		t.Fatalf("correct replies: %d of %d failed: %v", got.failed, got.attempted, got.notes)
	}

	// Corrupt one GET reply, turn one write's OK into ERR, drop the last reply.
	bad := 0
	for i, r := range all[0].reqs {
		if r.kind == opGet {
			logs[0].val[i] ^= 1
			bad++
			break
		}
	}
	logs[0].kind[0] = replyErr
	logs[0].done--
	if got := newKVModel(len(w.model.hash), 1).check("t", all, logs); got.failed != int64(bad+2) {
		t.Errorf("corrupted replies: %d failures, want %d: %v", got.failed, bad+2, got.notes)
	}
}

func TestKHopReference(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, 0 -> 2, 4 isolated.
	m := newGraphModel(5, []edge{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
	for _, c := range []struct {
		start uint32
		hops  int
		want  int
	}{{0, 1, 3}, {0, 2, 4}, {0, 3, 4}, {3, 3, 1}, {4, 2, 1}, {1, 1, 2}} {
		if got := m.khop(c.start, c.hops); got != c.want {
			t.Errorf("khop(%d, %d) = %d, want %d", c.start, c.hops, got, c.want)
		}
	}

	// A KHOP answered during an ADDEDGE trickle may see the new edge or not.
	s := &stream{}
	s.khop(3, 1)
	s.addEdge(3, 4)
	s.khop(3, 1)
	for _, visited := range []uint64{1, 2} {
		l := newConnLog(3)
		l.sent, l.done = 3, 3
		l.kind[0], l.val[0] = replyVisited, visited
		l.kind[1] = replyOK
		l.kind[2], l.val[2] = replyVisited, 2
		m := newGraphModel(5, []edge{{0, 1}, {1, 2}, {2, 3}, {0, 2}})
		if got := m.check("t", []*stream{s}, []*connLog{l}); got.failed != 0 {
			t.Errorf("first KHOP answered %d: %v", visited, got.notes)
		}
	}
	l := newConnLog(3)
	l.sent, l.done = 3, 3
	l.kind[0], l.val[0] = replyVisited, 3
	l.kind[1] = replyOK
	l.kind[2], l.val[2] = replyVisited, 2
	if got := m.check("t", []*stream{s}, []*connLog{l}); got.failed != 1 {
		t.Errorf("a count above the bracket must fail once, failed %d: %v", got.failed, got.notes)
	}
}
