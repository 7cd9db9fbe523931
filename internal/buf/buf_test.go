package buf

import (
	"bytes"
	"sync"
	"testing"
)

func TestClassRounding(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1024, 1024}, {1025, 2048},
		{MaxPooled, MaxPooled},
	}
	for _, c := range cases {
		l := Get(c.n)
		if l.Len() != c.n || cap(l.Bytes()) != c.wantCap {
			t.Errorf("Get(%d): len=%d cap=%d, want len=%d cap=%d", c.n, l.Len(), cap(l.Bytes()), c.n, c.wantCap)
		}
		l.Release()
	}
}

func TestOversizeUnpooled(t *testing.T) {
	before := metricOversize.Load()
	l := Get(MaxPooled + 1)
	if l.Len() != MaxPooled+1 {
		t.Fatalf("oversize len = %d", l.Len())
	}
	if metricOversize.Load() != before+1 {
		t.Fatalf("oversize counter not bumped")
	}
	l.Release()
}

// TestDoubleReleasePanics: releasing more references than held must fail
// loudly and deterministically — a silent double release would recycle a
// buffer out from under a live reader.
func TestDoubleReleasePanics(t *testing.T) {
	l := Get(32)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	l.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	l := Get(32)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after final Release did not panic")
		}
	}()
	l.Retain()
}

// TestRetainAcrossGoroutines: a retained lease is safe to read from other
// goroutines, and the backing array is not recycled until every holder
// releases. Run with -race.
func TestRetainAcrossGoroutines(t *testing.T) {
	const goroutines = 8
	const rounds = 200
	for r := 0; r < rounds; r++ {
		l := Get(128)
		b := l.Bytes()
		for i := range b {
			b[i] = byte(r)
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			l.Retain()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer l.Release()
				if !bytes.Equal(l.Bytes(), bytes.Repeat([]byte{byte(r)}, 128)) {
					t.Error("retained lease observed foreign bytes")
				}
			}()
		}
		l.Release() // creator's reference; holders keep the buffer alive
		wg.Wait()
	}
}

func TestPoisonScribblesOnFinalRelease(t *testing.T) {
	l := Get(64)
	backing := l.Bytes()[:cap(l.Bytes())]
	for i := range backing {
		backing[i] = 0x11
	}
	l.Poison()
	l.Retain()
	l.Release()
	if backing[0] != 0x11 {
		t.Fatal("poison scribbled before the final release")
	}
	l.Release()
	for i, v := range backing {
		if v != poisonByte {
			t.Fatalf("backing[%d] = %#x after poisoned final release, want %#x", i, v, poisonByte)
		}
	}
}

func TestAppendRelocates(t *testing.T) {
	l := Get(0)
	payload := bytes.Repeat([]byte{0xAB}, 100)
	for i := 0; i < 50; i++ {
		l = l.Append(payload)
	}
	want := bytes.Repeat([]byte{0xAB}, 100*50)
	if !bytes.Equal(l.Bytes(), want) {
		t.Fatal("Append lost or corrupted bytes across relocations")
	}
	l.Release()
}

func TestAppendVariadic(t *testing.T) {
	l := Sized(1, 64)
	l.Bytes()[0] = 0x7F
	l = l.Append([]byte{1, 2}, []byte{3, 4, 5})
	if !bytes.Equal(l.Bytes(), []byte{0x7F, 1, 2, 3, 4, 5}) {
		t.Fatalf("Append variadic = %v", l.Bytes())
	}
	l.Release()
}

func TestWrapUnpooled(t *testing.T) {
	b := []byte("hello")
	l := Wrap(b)
	if &l.Bytes()[0] != &b[0] {
		t.Fatal("Wrap copied instead of aliasing")
	}
	l.Release()
}

func BenchmarkGetRelease(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l := Get(4096)
			l.Release()
		}
	})
}
