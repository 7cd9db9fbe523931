package main

import "testing"

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "replay.op", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "memcloud.Get", StartNs: 10, EndNs: 60},
		{ID: 3, Parent: 2, Name: "msg.Call", StartNs: 20, EndNs: 50},
		// Two overlapping children of span 1: 70..90 and 80..95 cover 25, not 35.
		{ID: 4, Parent: 1, Name: "trunk.Read", StartNs: 70, EndNs: 90},
		{ID: 5, Parent: 1, Name: "trunk.Read", StartNs: 80, EndNs: 95},
		// A child that outlives its parent only counts up to the parent's end.
		{ID: 6, Name: "graph.AddEdge", StartNs: 200, EndNs: 210},
		{ID: 7, Parent: 6, Name: "memcloud.Put", StartNs: 205, EndNs: 250},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 25, 2: 50 - 30, 3: 30, 4: 20, 5: 15, 6: 5, 7: 45}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["trunk"] != 35 || byLayer["memcloud"] != 20+45 || byLayer["msg"] != 30 {
		t.Errorf("self by layer = %v", byLayer)
	}
	rows := byName(spans)
	if rows[0].name != "memcloud.Put" || rows[0].selfNs != 45 {
		t.Errorf("rows not ordered by self time: first is %+v", rows[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.call("x", 0, 0, func(id int64) { ran = id == 0 })
	if !ran {
		t.Error("a nil tracer must still run the call, with span id 0")
	}
}
