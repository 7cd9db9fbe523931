package obs

import "testing"

// BenchmarkCounterInc is the tentpole overhead bound: a single-goroutine
// increment on the striped counter must stay well under 20 ns/op, so
// instrumenting a memcloud operation costs a fraction of the operation.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Scope("bench").Counter("inc")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	if c.Load() != int64(b.N) {
		b.Fatal("lost increments")
	}
}

// BenchmarkCounterIncParallel is where striping earns its memory: all
// cores incrementing one counter at once.
func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Scope("bench").Counter("inc")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Scope("bench").Histogram("lat_ns")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewRegistry().Scope("bench").Histogram("lat_ns")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			h.Observe(i)
		}
	})
}
