package memcloud

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"trinity/internal/trunk"
)

func TestMultiPutCodecRoundTrip(t *testing.T) {
	items := []MultiPutItem{
		{Key: 1, Val: val(40, 1)},
		{Key: 1 << 60, Val: nil},
		{Key: 42, Val: val(1, 9)},
	}
	req := AppendMultiPutReq(make([]byte, 0, MultiPutReqSize(items)), items)
	if len(req) != MultiPutReqSize(items) {
		t.Fatalf("encoded %d bytes, MultiPutReqSize said %d", len(req), MultiPutReqSize(items))
	}
	got, err := decodeMultiPutReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Key != items[i].Key || !bytes.Equal(got[i].Val, items[i].Val) {
			t.Fatalf("item %d did not round-trip: %+v vs %+v", i, got[i], items[i])
		}
	}
}

func TestDecodeMultiPutReqRejectsMalformed(t *testing.T) {
	good := AppendMultiPutReq(nil, []MultiPutItem{{Key: 7, Val: val(16, 3)}})
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:3],
		"truncated item":  good[:10],
		"truncated value": good[:len(good)-4],
		"trailing bytes":  append(append([]byte{}, good...), 0xFF),
		"count overshoot": func() []byte {
			b := append([]byte{}, good...)
			binary.LittleEndian.PutUint32(b, 1<<30)
			return b
		}(),
	}
	for name, b := range cases {
		if _, err := decodeMultiPutReq(b); err == nil {
			t.Errorf("%s: decode accepted malformed request", name)
		}
	}
}

func TestDecodeMultiPutRespValidates(t *testing.T) {
	ok := []byte{MultiPutOK, MultiPutWrongOwner, MultiPutErr}
	if _, err := DecodeMultiPutResp(ok, 3); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	if _, err := DecodeMultiPutResp(ok, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := DecodeMultiPutResp([]byte{9}, 1); err == nil {
		t.Fatal("unknown status accepted")
	}
}

func TestLocalMultiPutStatuses(t *testing.T) {
	c := newCloud(t, 2)
	s0 := c.Slave(0)

	var local, remote uint64
	for k := uint64(0); ; k++ {
		if s0.Owner(k) == s0.ID() {
			local = k
			break
		}
	}
	for k := uint64(0); ; k++ {
		if s0.Owner(k) != s0.ID() {
			remote = k
			break
		}
	}

	items := []MultiPutItem{
		{Key: local, Val: val(16, 1)},
		{Key: remote, Val: val(16, 3)},
	}
	statuses := s0.LocalMultiPut(items)
	if want := []byte{MultiPutOK, MultiPutWrongOwner}; !bytes.Equal(statuses, want) {
		t.Fatalf("statuses = %v, want %v", statuses, want)
	}
	got, err := s0.Get(context.Background(), local)
	if err != nil || !bytes.Equal(got, val(16, 1)) {
		t.Fatalf("local key after batch: %v", err)
	}
}

func TestMultiPutLastWriteWinsWithinBatch(t *testing.T) {
	c := newCloud(t, 1)
	s0 := c.Slave(0)
	items := []MultiPutItem{
		{Key: 3, Val: val(16, 1)},
		{Key: 3, Val: val(16, 2)},
	}
	statuses := s0.LocalMultiPut(items)
	if statuses[0] != MultiPutOK || statuses[1] != MultiPutOK {
		t.Fatalf("statuses = %v", statuses)
	}
	got, err := s0.Get(context.Background(), 3)
	if err != nil || !bytes.Equal(got, val(16, 2)) {
		t.Fatalf("later duplicate did not win: %v", err)
	}
}

func TestMultiPutOverWire(t *testing.T) {
	c := newCloud(t, 2)
	s0 := c.Slave(0)

	// Keys owned by machine 1, shipped from machine 0 as one frame.
	var keys []uint64
	for k := uint64(0); len(keys) < 20; k++ {
		if s0.Owner(k) == 1 {
			keys = append(keys, k)
		}
	}
	items := make([]MultiPutItem, len(keys))
	for i, k := range keys {
		items[i] = MultiPutItem{Key: k, Val: val(24, byte(k))}
	}
	req := AppendMultiPutReq(nil, items)
	resp, err := s0.Node().Call(context.Background(), 1, ProtoMultiPut, req)
	if err != nil {
		t.Fatal(err)
	}
	statuses, err := DecodeMultiPutResp(resp, len(items))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range statuses {
		if st != MultiPutOK {
			t.Fatalf("item %d status %d", i, st)
		}
	}
	for _, k := range keys {
		got, err := s0.Get(context.Background(), k)
		if err != nil || !bytes.Equal(got, val(24, byte(k))) {
			t.Fatalf("wire-batched key %d: %v", k, err)
		}
	}
}

// TestWALGroupCommitRecovery is the durability half of the acceptance
// criterion: writes applied through the batched path (one group WAL
// record per trunk per batch, never backed up) must survive the owner's
// crash via group-record replay.
func TestWALGroupCommitRecovery(t *testing.T) {
	cfg := testConfig(3)
	cfg.BufferedLogging = true
	c := New(cfg)
	defer c.Close()
	s0, victim := c.Slave(0), c.Slave(2)

	var items []MultiPutItem
	for k := uint64(0); len(items) < 80; k++ {
		if s0.Owner(k) == victim.ID() {
			items = append(items, MultiPutItem{Key: k, Val: val(20, byte(k))})
		}
	}
	statuses := victim.LocalMultiPut(items)
	for i, st := range statuses {
		if st != MultiPutOK {
			t.Fatalf("item %d status %d", i, st)
		}
	}
	if victim.walGroupCommits.Load() == 0 {
		t.Fatal("no group commits recorded")
	}
	if got := victim.walGroupCommits.Load(); got >= int64(len(items)) {
		t.Fatalf("group commit amortized nothing: %d appends for %d writes", got, len(items))
	}

	// NO backup: the cells live in the victim's memory plus group records
	// in the TFS log.
	c.KillMachine(victim.ID())
	for _, it := range items {
		got, err := s0.Get(context.Background(), it.Key)
		if err != nil {
			t.Fatalf("key %d lost after crash: %v (group replay broken)", it.Key, err)
		}
		if !bytes.Equal(got, it.Val) {
			t.Fatalf("key %d corrupted after group replay", it.Key)
		}
	}
}

func TestReplayLogGroupRecords(t *testing.T) {
	newTrunk := func() *trunk.Trunk {
		return trunk.New(trunk.Options{Capacity: 1 << 16, PageSize: 1 << 10})
	}
	group := func(kv ...uint64) []byte {
		items := make([]trunk.BatchItem, len(kv))
		for i, k := range kv {
			items[i] = trunk.BatchItem{Key: k, Val: val(10, byte(k))}
		}
		return encodeGroupRecord(items, nil)
	}
	single := func(op byte, key uint64, v []byte) []byte {
		rec := make([]byte, 13+len(v))
		rec[0] = op
		binary.LittleEndian.PutUint64(rec[1:], key)
		binary.LittleEndian.PutUint32(rec[9:], uint32(len(v)))
		copy(rec[13:], v)
		return rec
	}
	concat := func(bs ...[]byte) []byte {
		var out []byte
		for _, b := range bs {
			out = append(out, b...)
		}
		return out
	}

	t.Run("mixed groups and singles replay in order", func(t *testing.T) {
		tr := newTrunk()
		log := concat(
			single(opPut, 1, val(10, 99)),
			group(1, 2, 3), // overwrites key 1
			single(opRemove, 2, nil),
			group(4),
		)
		if err := replay(tr, log, false); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{1, 3, 4} {
			got, err := tr.Get(k)
			if err != nil || !bytes.Equal(got, val(10, byte(k))) {
				t.Fatalf("key %d after replay: %v", k, err)
			}
		}
		if _, err := tr.Get(2); err == nil {
			t.Fatal("removed key survived replay")
		}
	})

	t.Run("truncated group tail stops silently", func(t *testing.T) {
		full := group(1, 2, 3)
		for cut := 1; cut < len(full); cut++ {
			tr := newTrunk()
			if err := replay(tr, full[:cut], false); err != nil {
				t.Fatalf("cut at %d: %v (crash tails must not error)", cut, err)
			}
			// Whatever applied, nothing may be corrupt.
			for _, k := range []uint64{1, 2, 3} {
				if got, err := tr.Get(k); err == nil && !bytes.Equal(got, val(10, byte(k))) {
					t.Fatalf("cut at %d: key %d corrupt", cut, k)
				}
			}
		}
	})

	t.Run("prefix before truncated group still applies", func(t *testing.T) {
		tr := newTrunk()
		full := group(7)
		log := concat(group(1, 2), full[:len(full)-3])
		if err := replay(tr, log, false); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{1, 2} {
			if _, err := tr.Get(k); err != nil {
				t.Fatalf("complete group before crash tail lost key %d", k)
			}
		}
		if _, err := tr.Get(7); err == nil {
			t.Fatal("half-appended group applied")
		}
	})

	t.Run("garbage inside framed group errors", func(t *testing.T) {
		g := group(1, 2)
		g[5] = 0x7F // first sub-record's op byte: not a valid plain op
		if err := replay(newTrunk(), g, false); err == nil {
			t.Fatal("corrupt group body replayed without error")
		}
		// Sub-record truncated inside a fully framed body: also corruption.
		g2 := group(1)
		binary.LittleEndian.PutUint32(g2[1:], uint32(len(g2)-5+8)) // lie: body longer than sub-records
		g2 = append(g2, make([]byte, 8)...)                        // pad so frame is "complete" but tail is junk
		if err := replay(newTrunk(), g2, false); err == nil {
			t.Fatal("truncated sub-record inside complete frame replayed without error")
		}
	})

	t.Run("unknown plain op errors", func(t *testing.T) {
		if err := replay(newTrunk(), single(0x7E, 1, val(4, 1)), false); err == nil {
			t.Fatal("unknown op replayed without error")
		}
	})
}
