package store_test

import (
	"context"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

func benchCloud(b *testing.B, machines int, reg *obs.Registry) *memcloud.Cloud {
	b.Helper()
	return memcloud.New(memcloud.Config{
		Machines:      machines,
		TrunkCapacity: 64 << 20,
		Msg: msg.Options{
			FlushInterval: 100 * time.Microsecond,
			CallTimeout:   10 * time.Second,
		},
		Metrics: reg,
	})
}

// BenchmarkPutPipeline measures the full batched multi-put path one
// machine sees during a bulk ingest: writes issued asynchronously from
// one access point, coalesced into per-owner ProtoMultiPut frames
// (encoded into pooled leases), applied with amortized trunk locking and
// resolved through futures. The pipeline's allocs/op is a gated number
// (entry slabs + one frame per batch, not per write).
func BenchmarkPutPipeline(b *testing.B) {
	reg := obs.NewRegistry()
	c := benchCloud(b, 4, reg)
	defer c.Close()
	s0 := c.Slave(0)

	const (
		batchSize = 256
		cellSize  = 64
	)
	payload := val(cellSize, 3)
	w := store.New(s0, store.Options{Metrics: reg})
	defer w.Close()

	b.ReportAllocs()
	b.SetBytes(int64(batchSize * cellSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint64(i) * batchSize
		for k := uint64(0); k < batchSize; k++ {
			w.PutAsync(base+k, payload)
		}
		if err := w.Drain(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
