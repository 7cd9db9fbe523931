package main

import (
	"bytes"
	"testing"
)

func kvStreams(seed uint64) []*stream {
	sp := specByName("kv_write").smoke()
	w := newWorkloadGen(&sp, seed, 2)
	out := w.preload()[0]
	return append(out, w.mix(500, false)...)
}

func graphStreams(seed uint64) []*stream {
	sp := specByName("graph_serve").smoke()
	w := newWorkloadGen(&sp, seed, 2)
	var out []*stream
	for _, stage := range w.preload() {
		out = append(out, stage...)
	}
	return append(out, w.mix(500, false)...)
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for name, gen := range map[string]func(uint64) []*stream{"kv": kvStreams, "graph": graphStreams} {
		a, b, c := gen(7), gen(7), gen(8)
		differs := false
		for i := range a {
			if !bytes.Equal(a[i].buf, b[i].buf) {
				t.Errorf("%s: stream %d differs between two runs of seed 7", name, i)
			}
			if !bytes.Equal(a[i].buf, c[i].buf) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated identical streams", name)
		}
	}
	if a, b := rmatEdges(newRNG(3), 8, 4), rmatEdges(newRNG(3), 8, 4); len(a) != 4<<8 || a[17] != b[17] || a[1000] != b[1000] {
		t.Error("rmatEdges is not a function of its seed")
	}
}

func TestStreamsAreWellFormedLines(t *testing.T) {
	for _, s := range append(kvStreams(1), graphStreams(1)...) {
		if len(s.end) != len(s.reqs) {
			t.Fatalf("%d offsets for %d requests", len(s.end), len(s.reqs))
		}
		for i := range s.reqs {
			line := s.buf[s.off(i):s.end[i]]
			if !bytes.HasSuffix(line, []byte("\r\n")) || bytes.ContainsAny(line[:len(line)-2], "\r\n") {
				t.Fatalf("request %d is not one CRLF-terminated line: %q", i, line)
			}
			if k := s.reqs[i].kind; k == opSet || k == opAppend {
				v := s.value(i)
				if len(v) != int(s.reqs[i].size) || bytes.ContainsAny(v, " \r\n") {
					t.Fatalf("request %d: value %q does not match its recorded size %d", i, v, s.reqs[i].size)
				}
			}
		}
	}
}

func TestSingleWriterPerKey(t *testing.T) {
	streams := kvStreams(5)[2:] // the mix, one stream per connection
	for c, s := range streams {
		for _, r := range s.reqs {
			if r.kind != opGet && int(r.key%2) != c {
				t.Fatalf("connection %d writes key %d, which belongs to connection %d", c, r.key, r.key%2)
			}
		}
	}
	for key := uint64(0); key < 11; key++ {
		for c := 0; c < 3; c++ {
			if k := ownKey(key, c, 3, 11); int(k%3) != c || k >= 11 {
				t.Errorf("ownKey(%d, conn %d of 3, 11 keys) = %d", key, c, k)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	z, r := newZipf(1000, 0.99), newRNG(1)
	hits := make([]int, 1000)
	for i := 0; i < 100_000; i++ {
		hits[z.draw(r)]++
	}
	top := hits[0] + hits[1] + hits[2]
	if top < 20_000 || top > 45_000 || hits[0] <= hits[10] || hits[10] <= hits[500] {
		t.Errorf("zipf 0.99 over 1000 keys: top three got %d of 100000 draws; hits[0,10,500] = %d, %d, %d",
			top, hits[0], hits[10], hits[500])
	}
}

func TestPowerLawHasHubs(t *testing.T) {
	edges := powerLawEdges(newRNG(2), 2000, 10, 2.16)
	if len(edges) != 20_000 {
		t.Fatalf("%d edges, want 20000", len(edges))
	}
	g := buildCSR(2000, edges)
	if hub, leaf := len(g.out(0)), len(g.out(1999)); hub < 20*leaf+20 {
		t.Errorf("node 0 has %d out-edges and node 1999 has %d: no power law", hub, leaf)
	}
	for _, e := range edges {
		if e.src == e.dst {
			t.Fatal("self-loop generated")
		}
	}
}
