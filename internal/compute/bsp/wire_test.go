package bsp

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"trinity/internal/graph"
)

// encodePairs builds a protoVertexMsg payload as the sender does.
func encodePairs(ids []uint64, vals []float64) []byte {
	b := make([]byte, 0, pairBytes*len(ids))
	for i, id := range ids {
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[i]))
	}
	return b
}

// FuzzDecodeVertexBatch feeds arbitrary payloads to the vertex-batch
// decoder. A payload either is rejected before any pair is delivered, or
// delivers strictly ascending ids that re-encode to exactly its bytes.
func FuzzDecodeVertexBatch(f *testing.F) {
	f.Add(encodePairs([]uint64{1, 2, 1 << 40}, []float64{0.5, -1, math.Inf(1)}))
	f.Add(encodePairs(nil, nil))
	for _, m := range malformedBatches(3, 7, 9) {
		f.Add(m.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ids []uint64
		var vals []float64
		ok := decodeVertexBatch(b, func(id uint64, v float64) {
			ids = append(ids, id)
			vals = append(vals, v)
		})
		if !ok {
			if len(ids) > 0 {
				t.Fatalf("rejected payload %x delivered %d pairs", b, len(ids))
			}
			return
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("payload %x delivered ids %v, not strictly ascending", b, ids)
			}
		}
		if re := encodePairs(ids, vals); !bytes.Equal(re, b) {
			t.Fatalf("payload %x decodes to %v %v, which encodes to %x", b, ids, vals, re)
		}
	})
}

// malformedBatches are payloads over ids a < b < c that the receiver
// must reject whole.
func malformedBatches(a, b, c uint64) []struct {
	name string
	b    []byte
} {
	valid := encodePairs([]uint64{a, b, c}, []float64{1, 2, 3})
	return []struct {
		name string
		b    []byte
	}{
		{"short pair", valid[:15]},
		{"trailing byte", append(bytes.Clone(valid), 0)},
		{"truncated last pair", valid[:len(valid)-1]},
		{"descending ids", encodePairs([]uint64{b, a}, []float64{1, 2})},
		{"descending tail", encodePairs([]uint64{b, c, a}, []float64{1, 2, 3})},
		{"duplicate ids", encodePairs([]uint64{a, b, b}, []float64{1, 2, 3})},
	}
}

func TestVertexBatchRejectsMalformedFrames(t *testing.T) {
	cloud := newCloud(t, 2)
	g := ringGraph(t, cloud, 40)
	e := New(g, Options{})
	e.prog = haltNow{}
	rejected := cloud.Metrics().Scope("bsp").Counter("batches_rejected")
	w := e.workers[0]
	ids := w.pv.IDs()
	// Over this machine's own ids, so that an accepted pair would land in
	// a mailbox.
	for _, m := range malformedBatches(ids[0], ids[1], ids[2]) {
		t.Run(m.name, func(t *testing.T) {
			if decodeVertexBatch(m.b, func(uint64, float64) { t.Fatal("pair delivered from a rejected payload") }) {
				t.Fatal("accepted")
			}
			before := rejected.Load()
			w.onVertexMsg(1, m.b)
			if got := rejected.Load() - before; got != 1 {
				t.Fatalf("batches_rejected moved by %d, want 1", got)
			}
			for idx, has := range w.nextHas {
				if has {
					t.Fatalf("vertex %d got a message from a rejected payload", ids[idx])
				}
			}
		})
	}
	// Local ids are ascending in the view, so the whole run is a valid
	// payload and each pair lands in its vertex's mailbox.
	vals := make([]float64, len(ids))
	for i := range vals {
		vals[i] = float64(i) + 0.5
	}
	before := rejected.Load()
	w.onVertexMsg(1, encodePairs(ids, vals))
	if rejected.Load() != before {
		t.Fatal("valid payload rejected")
	}
	for idx := range ids {
		if !w.nextHas[idx] || w.next[idx] != vals[idx] {
			t.Fatalf("vertex %d: mailbox %v/%v, want %v", ids[idx], w.next[idx], w.nextHas[idx], vals[idx])
		}
	}
}

// fanIn sends 1 along every out-edge in superstep 0 and sums what it
// receives in superstep 1.
type fanIn struct{}

func (fanIn) Init(uint64, int) (float64, bool) { return 0, true }
func (fanIn) Combine(a, b float64) float64     { return a + b }
func (fanIn) Compute(ctx *Context, _ uint64, v float64, msgs []float64) (float64, bool) {
	if ctx.Superstep() == 0 {
		ctx.SendToAllOut(1)
		return v, true
	}
	for _, m := range msgs {
		v += m
	}
	return v, true
}

func TestSenderCombinesRemoteMessages(t *testing.T) {
	// k vertices on one machine point at one vertex on another: the
	// superstep sends k logical messages and one wire pair.
	const k = 8
	cloud := newCloud(t, 2)
	owner := cloud.Slave(0).Owner
	var target uint64
	for owner(target) != 1 {
		target++
	}
	b := graph.NewBuilder(true)
	b.AddNode(target, 0, "")
	var sources []uint64
	for id := uint64(0); len(sources) < k; id++ {
		if owner(id) == 0 {
			sources = append(sources, id)
			b.AddNode(id, 0, "")
			b.AddEdge(id, target)
		}
	}
	g, err := b.Load(context.Background(), cloud)
	if err != nil {
		t.Fatal(err)
	}
	scope := cloud.Metrics().Scope("bsp")
	e := New(g, Options{})
	if _, err := e.Run(context.Background(), fanIn{}); err != nil {
		t.Fatal(err)
	}
	if got := e.WireMessages(); got != 1 {
		t.Fatalf("wire messages = %d, want 1", got)
	}
	if got := scope.Counter("messages_sent").Load(); got != k {
		t.Fatalf("messages_sent = %d, want %d", got, k)
	}
	if got := scope.Counter("messages_combined").Load(); got != k-1 {
		t.Fatalf("messages_combined = %d, want %d", got, k-1)
	}
	if got := e.Values()[target]; got != k {
		t.Fatalf("target received %v, want %d", got, k)
	}
}
