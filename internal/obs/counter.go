package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the striping factor of Counter. It must be a power of
// two. 32 cache lines (2 KiB per counter) is enough to keep a laptop-scale
// simulated cluster's hottest counters contention-free without making
// thousands of registered counters expensive to hold resident.
const counterShards = 32

// cell is one cache-line-padded counter stripe. The padding keeps two
// stripes from sharing a cache line, which is the entire point of
// striping: concurrent Inc calls from different goroutines land on
// different lines and never bounce ownership between cores.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing (or explicitly Add-ed) event
// counter, striped across cache lines so that concurrent increments from
// many goroutines do not serialize on one cache line. The zero value is
// NOT usable; obtain counters from a Scope.
type Counter struct {
	cells [counterShards]cell
}

// stripe picks a quasi-per-goroutine stripe index. Goroutine stacks live
// at distinct addresses, so hashing the address of a stack variable
// spreads goroutines across stripes at near-zero cost (no allocation: the
// pointer is immediately reduced to a scalar and never escapes).
func stripe() uint64 {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	return (uint64(p) * 0x9E3779B97F4A7C15) >> 33
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d (which may be negative, though counters are conventionally
// monotonic).
func (c *Counter) Add(d int64) {
	c.cells[stripe()&(counterShards-1)].n.Add(d)
}

// Load returns the current total. The sum is not a single atomic
// snapshot; concurrent increments may or may not be included, which is
// the usual metrics contract.
func (c *Counter) Load() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous integer value (queue depth, live cells,
// active vertices). Unlike Counter it is set or adjusted, not summed over
// stripes: gauges are written rarely enough that striping buys nothing.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
