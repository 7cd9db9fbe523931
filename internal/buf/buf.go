// Package buf provides size-classed, reference-counted buffer leases for
// the zero-copy read path. Trinity's core bet (paper §3) is that blob
// storage beats runtime objects because it sidesteps per-cell allocation
// and GC pressure; a reproduction that re-allocates a fresh slice on every
// trunk read, frame encode, and transport hop forfeits that bet. A Lease
// is a pooled byte buffer with an explicit reference count: layers hand
// buffers to each other by transferring or retaining references instead of
// copying, and the final Release returns the backing array to a per-size-
// class pool.
//
// Lifecycle contract:
//
//   - Get/Sized/Wrap return a lease holding one reference, owned by the
//     caller.
//   - Retain adds a reference; every reference is settled by exactly one
//     Release. Passing a lease to an API documented as "consuming" it
//     transfers one reference.
//   - Release of the last reference recycles the backing array; the bytes
//     must not be touched afterward. Releasing more times than retained
//     panics deterministically (the count goes negative), which is how the
//     race suite pins down ownership bugs.
//   - Poison marks the lease so the final Release scribbles 0xDB over the
//     backing array before recycling it: any component that kept an alias
//     past its last reference reads garbage (and races with the scribble
//     under -race). The chaos transport poisons every frame in
//     PoisonFrames mode.
//
// Backing arrays come from power-of-two size classes (64 B … 1 MiB), each
// with its own sync.Pool; larger requests fall through to plain
// allocations (counted, never pooled). The Lease struct travels with its
// backing array through the pool, so a steady-state Get/Release cycle
// allocates nothing.
package buf

import (
	"sync"
	"sync/atomic"

	"trinity/internal/obs"
)

const (
	minClassBits = 6  // smallest class: 64 B
	maxClassBits = 20 // largest class: 1 MiB
	numClasses   = maxClassBits - minClassBits + 1

	// MaxPooled is the largest request served from a pool; bigger buffers
	// are allocated exactly and dropped on release.
	MaxPooled = 1 << maxClassBits

	poisonByte = 0xDB
)

var pools [numClasses]sync.Pool

// Pool metrics live on the default registry under "buf": the pool is
// process-global, so its counters are too.
var (
	metricHits     = obs.Default().Scope("buf").Counter("hits")
	metricMisses   = obs.Default().Scope("buf").Counter("misses")
	metricOversize = obs.Default().Scope("buf").Counter("oversize")
	metricInUse    = obs.Default().Scope("buf").Gauge("inuse")
)

// Lease is a reference-counted buffer. The zero value is not usable;
// obtain leases from Get, Sized, or Wrap.
type Lease struct {
	data   []byte
	refs   atomic.Int32
	poison atomic.Bool
	class  int8 // pool index, -1 for unpooled
}

// classFor returns the smallest size class holding n bytes, or -1 if n
// exceeds MaxPooled.
func classFor(n int) int {
	if n > MaxPooled {
		return -1
	}
	c := 0
	for 1<<(minClassBits+c) < n {
		c++
	}
	return c
}

// Get returns a lease of length n (capacity rounded up to the size
// class), holding one reference owned by the caller.
func Get(n int) *Lease {
	return Sized(n, n)
}

// Sized returns a lease of length n whose capacity accommodates at least
// max(n, capacity) bytes without Append relocating. Use it for buffers
// built incrementally toward a known bound (the msg packer sizes its
// batch buffers to BatchBytes up front).
func Sized(n, capacity int) *Lease {
	if capacity < n {
		capacity = n
	}
	c := classFor(capacity)
	if c < 0 {
		metricOversize.Inc()
		metricInUse.Add(1)
		l := &Lease{data: make([]byte, n, capacity), class: -1}
		l.refs.Store(1)
		return l
	}
	var l *Lease
	if v := pools[c].Get(); v != nil {
		metricHits.Inc()
		l = v.(*Lease)
	} else {
		metricMisses.Inc()
		l = &Lease{data: make([]byte, 1<<(minClassBits+c)), class: int8(c)}
	}
	metricInUse.Add(1)
	l.data = l.data[:n]
	l.poison.Store(false)
	l.refs.Store(1)
	return l
}

// Wrap returns an unpooled lease around a caller-owned slice, holding one
// reference. The final Release drops the slice for the GC (scribbling it
// first if poisoned). Wrap exists so lease-consuming APIs can be fed
// buffers that did not come from the pool (tests, fuzzers, one-off
// frames).
//
//reach:test-seam msg's chaos, ctx and fuzz tests feed hand-built frames to lease-consuming receivers
func Wrap(b []byte) *Lease {
	metricInUse.Add(1)
	l := &Lease{data: b, class: -1}
	l.refs.Store(1)
	return l
}

// Bytes returns the lease's payload. The slice is valid until the
// caller's reference is released; it must not be retained past that.
func (l *Lease) Bytes() []byte { return l.data }

// Len returns the payload length.
func (l *Lease) Len() int { return len(l.data) }

// Retain adds a reference and returns the lease for chaining. Each
// Retain obligates exactly one additional Release.
func (l *Lease) Retain() *Lease {
	if l.refs.Add(1) <= 1 {
		panic("buf: retain of released lease")
	}
	return l
}

// Release settles one reference. The final Release recycles the backing
// array; releasing a lease more times than it was retained panics.
func (l *Lease) Release() {
	refs := l.refs.Add(-1)
	if refs > 0 {
		return
	}
	if refs < 0 {
		panic("buf: release of released lease")
	}
	metricInUse.Add(-1)
	if l.poison.Load() {
		full := l.data[:cap(l.data)]
		for i := range full {
			full[i] = poisonByte
		}
	}
	if l.class >= 0 {
		pools[l.class].Put(l)
	}
	// Unpooled leases are dropped for the GC.
}

// Poison marks the lease so the final Release overwrites the backing
// array with garbage before recycling it, flushing out any component
// that kept an alias past its last reference.
func (l *Lease) Poison() { l.poison.Store(true) }

// Append appends the given slices to the lease's payload, relocating to
// a larger lease (and releasing the receiver) when the backing capacity
// is exceeded. It returns the lease holding the result, which the caller
// must use in place of the receiver. Only the sole owner may Append.
func (l *Lease) Append(ps ...[]byte) *Lease {
	need := len(l.data)
	for _, p := range ps {
		need += len(p)
	}
	if need > cap(l.data) {
		nl := Sized(len(l.data), need)
		copy(nl.data, l.data)
		if l.poison.Load() {
			nl.poison.Store(true)
		}
		l.Release()
		l = nl
	}
	for _, p := range ps {
		l.data = append(l.data, p...)
	}
	return l
}
