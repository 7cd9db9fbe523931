package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("t").Counter("hits")
	const goroutines = 16
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter lost updates: got %d, want %d", got, goroutines*perG)
	}
}

func TestCounterAddNegativeAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Scope("t").Counter("delta")
	c.Add(10)
	c.Add(-3)
	if got := c.Load(); got != 7 {
		t.Fatalf("Add: got %d, want 7", got)
	}
	g := r.Scope("t").Gauge("depth")
	g.Set(42)
	g.Add(-2)
	if got := g.Load(); got != 40 {
		t.Fatalf("gauge: got %d, want 40", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("t").Histogram("lat_ns")
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := int64(0); i < perG; i++ {
				h.Observe(seed*1000 + i)
			}
		}(int64(g))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("histogram lost observations: got %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket counts %d do not sum to count %d", bucketSum, s.Count)
	}
	if s.Max < 7000+perG-1 {
		t.Fatalf("max %d below the largest observed value", s.Max)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Scope("t").Histogram("q")
	// 99 observations of 100ns and one of 1ms: p50 within 2x of 100,
	// p99+ reaches toward the outlier's bucket.
	for i := 0; i < 99; i++ {
		h.Observe(100)
	}
	h.Observe(1_000_000)
	s := h.Snapshot()
	if p50 := s.Quantile(0.50); p50 < 100 || p50 > 200 {
		t.Fatalf("p50 = %d, want within [100, 200]", p50)
	}
	if max := s.Quantile(1.0); max != 1_000_000 {
		t.Fatalf("p100 = %d, want 1000000", max)
	}
	if mean := s.Mean(); mean < 10000 || mean > 10100 {
		t.Fatalf("mean = %f, want ~10099", mean)
	}
	if s.Quantile(0.5) > s.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	// Register in deliberately unsorted order.
	r.Scope("zeta").Counter("c").Add(3)
	r.Scope("alpha").Gauge("g").Set(5)
	r.Scope("mid").Histogram("h").Observe(1024)
	r.Scope("alpha").Func("derived", func() float64 { return 1.5 })

	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots differ:\n%s\n---\n%s", a.String(), b.String())
	}
	names := make([]string, 0)
	for _, v := range r.Snapshot() {
		names = append(names, v.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("snapshot not sorted: %q before %q", names[i-1], names[i])
		}
	}
	want := []string{"alpha.derived", "alpha.g", "mid.h", "zeta.c"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("snapshot order: got %v, want %v", names, want)
		}
	}

	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "zeta.c 3") {
		t.Fatalf("text dump missing counter line:\n%s", txt.String())
	}
	if !strings.Contains(txt.String(), "mid.h.count 1") {
		t.Fatalf("text dump missing histogram expansion:\n%s", txt.String())
	}
}

func TestScopeGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Scope("memcloud").Counter("ops")
	b := r.Scope("memcloud").Counter("ops")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	child := r.Scope("memcloud").Scope("m0")
	child.Counter("ops").Inc()
	found := false
	for _, v := range r.Snapshot() {
		if v.Name == "memcloud.m0.ops" && v.Int == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("nested scope did not register memcloud.m0.ops")
	}
}
