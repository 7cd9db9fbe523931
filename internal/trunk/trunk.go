// Package trunk implements a Trinity memory trunk: a fixed-capacity blob
// arena with circular memory management (paper §6.1).
//
// A trunk owns one large byte buffer. Key-value pairs (cells) are appended
// sequentially at the append head; removing or relocating a cell leaves a
// gap, and a defragmentation pass slides live cells toward the append head
// so the committed tail can advance and release whole pages. The head and
// tail chase each other around the buffer in an endless circular movement,
// exactly as Figure 11 of the paper describes.
//
// The trunk decides when to compact by itself, in place of the paper's
// periodic daemon: every exclusive-mode mutation ends with one pass when
// the gap bytes reach the live bytes and at least one page, and an
// allocation that finds no contiguous room runs one pass and retries.
//
// Storing cells as raw blobs in a single buffer is the load-bearing design
// decision of Trinity: a trunk is one object from the garbage collector's
// point of view no matter how many cells it holds, which is what lets the
// engine keep billions of cells resident without per-object overhead
// (contrast with the runtime-object baselines in internal/baseline).
//
// The index maps a key to its record by value: neither key nor entry holds
// a pointer, so the garbage collector never scans it either.
//
// Concurrency follows the paper: trunk-level parallelism is the primary
// mechanism ("each machine hosts multiple memory trunks ... parallelism
// without any overhead of locking"), so one trunk mutex is the only lock.
// Readers (Get, ReadInto, View, ForEach, DumpTo) share it; every writer
// holds it exclusively, including Update, the zero-copy in-place writer
// behind the §4.3 accessors. No reader can therefore see a half-written
// cell, and no cell carries a lock of its own.
package trunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"trinity/internal/obs"
)

// Errors returned by trunk operations.
var (
	// ErrFull reports that the trunk cannot satisfy an allocation even
	// after considering the wrap-around region and running one
	// defragmentation pass.
	ErrFull = errors.New("trunk: out of memory")
	// ErrNotFound reports that no cell with the given key exists.
	ErrNotFound = errors.New("trunk: cell not found")
	// ErrExists reports that Add was called for a key that already exists.
	ErrExists = errors.New("trunk: cell already exists")
	// ErrCorrupt reports a malformed dump during LoadFrom.
	ErrCorrupt = errors.New("trunk: corrupt dump")
)

const (
	// headerSize is the per-record overhead inside the buffer:
	// key (8 bytes) + payload size (4) + reservation size (4).
	// This matches the 16-byte per-cell overhead in the paper's memory
	// model (§5.4: S = |V|(16+k+l+m) + 8|E|).
	headerSize = 16

	// wrapKey marks a filler record that tells a sequential scan to jump
	// back to offset 0. It is not a legal cell key: real keys are mixed
	// 64-bit IDs and the trunk rejects this value on insert.
	wrapKey = ^uint64(0)

	// DefaultCapacity is the default trunk size. The paper reserves 2 GB
	// of virtual address space per trunk; the simulated cluster uses a
	// smaller default so many trunks fit comfortably in one process.
	DefaultCapacity = 64 << 20

	// DefaultPageSize is the commit/decommit granularity.
	DefaultPageSize = 64 << 10
)

// ReservationPolicy decides how many extra bytes to reserve when a cell of
// oldSize bytes must grow by growth bytes. Reservations are short-lived:
// the next defragmentation pass releases whatever remains unused (§6.1).
type ReservationPolicy func(oldSize, growth int) int

// DefaultReservation doubles the requested growth (the paper's example:
// "if the current key-value pair needs to expand by 16 bytes, we allocate
// 32 bytes instead"), capped at 4 KiB to bound waste on huge cells.
func DefaultReservation(oldSize, growth int) int {
	r := growth
	if r > 4096 {
		r = 4096
	}
	return r
}

// NoReservation disables reservations; every expansion relocates.
//
//reach:test-seam the foil of the §6.1 ablation (BenchmarkTrunkExpansionNoReservation, EXPERIMENTS.md)
func NoReservation(oldSize, growth int) int { return 0 }

// Options configures a trunk.
type Options struct {
	// Capacity is the size of the reserved buffer in bytes.
	// Zero means DefaultCapacity.
	Capacity int64
	// PageSize is the commit granularity. Zero means DefaultPageSize.
	PageSize int64
	// Reservation is the expansion reservation policy.
	// Nil means DefaultReservation.
	Reservation ReservationPolicy
	// Metrics, when non-nil, receives defragmentation and reload timing.
	// A slave passes one scope for all of its trunks, so the histograms
	// aggregate across the machine's trunk set. Nil disables recording;
	// the per-trunk Stats() counters are always maintained.
	Metrics *obs.Scope
}

// Stats is a snapshot of trunk health and activity counters.
type Stats struct {
	Capacity       int64 // reserved buffer size
	CommittedBytes int64 // bytes in committed pages
	UsedBytes      int64 // bytes between committed tail and append head
	LiveBytes      int64 // headers + payloads of live cells
	GapBytes       int64 // dead bytes awaiting defragmentation
	ReservedBytes  int64 // live but unused reservation bytes
	Cells          int64 // number of live cells

	Allocs        int64 // successful allocations
	Relocations   int64 // cells moved because in-place growth failed
	InPlaceGrowth int64 // expansions satisfied by a reservation
	PageCommits   int64 // pages committed
	PageDecommits int64 // pages decommitted
	DefragPasses  int64 // completed defragmentation passes
	CellsMoved    int64 // cells copied by defragmentation
	BytesMoved    int64 // bytes copied by defragmentation
}

// entry is the index's record of one cell, held in the map by value. A
// mutator that changes it writes the copy back with t.index[key] = e.
type entry struct {
	offset   int64
	size     int32
	reserved int32
}

// Trunk is a single memory trunk. All methods are safe for concurrent use.
type Trunk struct {
	mu  sync.RWMutex
	buf []byte

	index map[uint64]entry

	// Circular region state. The live region runs from tail to head
	// (wrapping at capacity). used disambiguates the full and empty
	// states when head == tail.
	head int64
	tail int64
	used int64

	pageSize  int64
	committed []bool // page commit bitmap
	reserve   ReservationPolicy

	liveBytes     int64
	gapBytes      int64
	reservedBytes int64

	stats Stats

	// Registry-backed timing, nil when the trunk is unobserved.
	defragNs       *obs.Histogram
	reloadNs       *obs.Histogram
	reclaimedBytes *obs.Counter

	scratch []byte // defragmentation copy buffer
}

// New creates an empty trunk.
func New(opts Options) *Trunk {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.PageSize <= 0 {
		opts.PageSize = DefaultPageSize
	}
	if opts.Capacity < opts.PageSize {
		opts.Capacity = opts.PageSize
	}
	if opts.Reservation == nil {
		opts.Reservation = DefaultReservation
	}
	pages := (opts.Capacity + opts.PageSize - 1) / opts.PageSize
	t := &Trunk{
		buf:       make([]byte, opts.Capacity), //alloc:ok one-time trunk arena at construction
		index:     make(map[uint64]entry),
		pageSize:  opts.PageSize,
		committed: make([]bool, pages),
		reserve:   opts.Reservation,
	}
	if opts.Metrics != nil {
		t.defragNs = opts.Metrics.Histogram("defrag_ns")
		t.reloadNs = opts.Metrics.Histogram("reload_ns")
		t.reclaimedBytes = opts.Metrics.Counter("defrag_reclaimed_bytes")
	}
	return t
}

// Stats returns a snapshot of the trunk's counters.
func (t *Trunk) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.stats
	s.Capacity = int64(len(t.buf))
	s.UsedBytes = t.used
	s.LiveBytes = t.liveBytes
	s.GapBytes = t.gapBytes
	s.ReservedBytes = t.reservedBytes
	s.Cells = int64(len(t.index))
	var cb int64
	for _, c := range t.committed {
		if c {
			cb += t.pageSize
		}
	}
	s.CommittedBytes = cb
	return s
}

// writeHeader writes a record header at off.
func (t *Trunk) writeHeader(off int64, key uint64, size, reserved int32) {
	binary.LittleEndian.PutUint64(t.buf[off:], key)
	binary.LittleEndian.PutUint32(t.buf[off+8:], uint32(size))
	binary.LittleEndian.PutUint32(t.buf[off+12:], uint32(reserved))
}

func (t *Trunk) readHeader(off int64) (key uint64, size, reserved int32) {
	key = binary.LittleEndian.Uint64(t.buf[off:])
	size = int32(binary.LittleEndian.Uint32(t.buf[off+8:]))
	reserved = int32(binary.LittleEndian.Uint32(t.buf[off+12:]))
	return
}

// commitRange marks every page overlapping [off, off+n) committed.
// Called with t.mu held.
func (t *Trunk) commitRange(off, n int64) {
	if n <= 0 {
		return
	}
	first := off / t.pageSize
	last := (off + n - 1) / t.pageSize
	for p := first; p <= last; p++ {
		if !t.committed[p] {
			t.committed[p] = true
			t.stats.PageCommits++
		}
	}
}

// decommitDead releases pages that no longer overlap the live region.
// Called with t.mu held after the tail advances.
func (t *Trunk) decommitDead() {
	if t.used == 0 {
		for p := range t.committed {
			if t.committed[p] {
				t.committed[p] = false
				t.stats.PageDecommits++
			}
		}
		return
	}
	cap := int64(len(t.buf))
	inLive := func(pos int64) bool {
		if t.tail < t.head {
			return pos >= t.tail && pos < t.head
		}
		if t.tail > t.head {
			return pos >= t.tail || pos < t.head
		}
		return true // full
	}
	for p := range t.committed {
		if !t.committed[p] {
			continue
		}
		start := int64(p) * t.pageSize
		end := start + t.pageSize
		if end > cap {
			end = cap
		}
		// A page stays committed if any byte of it is in the live region.
		live := inLive(start) || inLive(end-1)
		if !live && t.tail >= start && t.tail < end {
			live = true // page containing the tail pointer itself
		}
		if !live && t.head >= start && t.head < end {
			live = true // page the next allocation will touch
		}
		if !live {
			t.committed[p] = false
			t.stats.PageDecommits++
		}
	}
}

// alloc finds space for a record of `need` bytes (header included),
// writing a wrap filler if the end of the buffer must be skipped.
// Returns the record offset. Called with t.mu held.
func (t *Trunk) alloc(need int64) (int64, error) {
	cap := int64(len(t.buf))
	if need > cap {
		return 0, ErrFull
	}
	if t.used == 0 {
		// Empty trunk: restart at the origin so page usage is dense.
		t.head, t.tail = 0, 0
	}
	wrapped := t.head < t.tail || (t.head == t.tail && t.used > 0)
	if !wrapped {
		if cap-t.head >= need {
			off := t.head
			t.commitRange(off, need)
			t.head += need
			if t.head == cap {
				t.head = 0
			}
			t.used += need
			return off, nil
		}
		// Not enough room before the end; try wrapping to the front.
		if t.tail >= need {
			fill := cap - t.head
			if fill >= headerSize {
				t.commitRange(t.head, headerSize)
				t.writeHeader(t.head, wrapKey, int32(fill-headerSize), 0)
			}
			// Bytes too small for a header are skipped implicitly by
			// the scanner.
			t.used += fill
			t.gapBytes += fill
			t.head = 0
			off := int64(0)
			t.commitRange(off, need)
			t.head = need
			t.used += need
			return off, nil
		}
		return 0, ErrFull
	}
	// Wrapped: free space is the contiguous run [head, tail).
	if t.tail-t.head >= need {
		off := t.head
		t.commitRange(off, need)
		t.head += need
		t.used += need
		return off, nil
	}
	return 0, ErrFull
}

// mutKind selects what mutate does with the key's present state.
type mutKind uint8

const (
	mutAdd    mutKind = iota // insert; ErrExists when the key is present
	mutPut                   // insert or overwrite
	mutAppend                // extend; ErrNotFound when the key is absent
)

// mutate is the one allocate-or-defragment path under Add, Put and
// Append: apply the mutation under the trunk mutex and, if the circular
// allocator is out of contiguous room, run one defragmentation pass (it
// may coalesce enough gaps and expired reservations) and apply once more.
// Like every exclusive-mode mutation it ends with the compaction rule: a
// pass once the trunk holds at least as many gap bytes as live bytes, and
// at least a page of them. It stays a flat function on purpose — no closure, no helper
// taking a func: owner-side handlers run on fresh goroutines with small
// stacks, and extra frames above alloc send every write through stack
// growth.
func (t *Trunk) mutate(kind mutKind, key uint64, payload []byte) error {
	t.mu.Lock()
	err := t.mutateLocked(kind, key, payload)
	if errors.Is(err, ErrFull) && t.defragmentLocked() > 0 {
		err = t.mutateLocked(kind, key, payload)
	}
	if t.gapBytes >= t.liveBytes && t.gapBytes >= t.pageSize {
		t.defragmentLocked()
	}
	t.mu.Unlock()
	return err
}

// mutateLocked applies one mutation without retrying. Called with t.mu
// held.
func (t *Trunk) mutateLocked(kind mutKind, key uint64, payload []byte) error {
	e, ok := t.index[key]
	switch {
	case !ok && kind == mutAppend:
		return ErrNotFound
	case !ok:
		return t.addLocked(key, payload)
	case kind == mutAdd:
		return ErrExists
	case kind == mutAppend:
		return t.appendLocked(key, e, payload)
	default:
		return t.rewriteLocked(key, e, payload)
	}
}

// Add inserts a new cell. It fails with ErrExists if the key is present
// and ErrFull if space cannot be found even after a defragmentation pass.
func (t *Trunk) Add(key uint64, payload []byte) error {
	return t.mutate(mutAdd, key, payload)
}

// addLocked allocates and indexes a cell for a key that is not present.
// Called with t.mu held.
func (t *Trunk) addLocked(key uint64, payload []byte) error {
	if key == wrapKey {
		return fmt.Errorf("trunk: key %#x is reserved", key)
	}
	need := int64(headerSize + len(payload))
	off, err := t.alloc(need)
	if err != nil {
		return err
	}
	t.writeHeader(off, key, int32(len(payload)), 0)
	copy(t.buf[off+headerSize:], payload)
	t.index[key] = entry{offset: off, size: int32(len(payload))}
	t.liveBytes += need
	t.stats.Allocs++
	return nil
}

// Put inserts or overwrites a cell.
func (t *Trunk) Put(key uint64, payload []byte) error {
	return t.mutate(mutPut, key, payload)
}

// BatchItem is one upsert inside a PutBatch.
type BatchItem struct {
	Key uint64
	Val []byte
}

// PutBatch applies every item under a single acquisition of the trunk
// mutex, amortizing the lock across the whole batch instead of paying it
// once per cell — the storage half of the bulk-write pipeline. Items are
// applied in order, so a batch carrying two writes to one key leaves the
// later value (the pipeline's last-write-wins contract).
//
// The return value is nil when every item succeeded; otherwise it is a
// per-item error slice in argument order (nil entries for the items that
// succeeded). One full item does not fail its neighbours: ErrFull items
// are retried once after a defragmentation pass, exactly like Put, and the
// batch ends with mutate's compaction rule.
func (t *Trunk) PutBatch(items []BatchItem) []error {
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(items))
		}
		errs[i] = err
	}
	var full []int
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range items {
		err := t.mutateLocked(mutPut, items[i].Key, items[i].Val)
		if errors.Is(err, ErrFull) {
			full = append(full, i)
		} else if err != nil {
			fail(i, err)
		}
	}
	if len(full) > 0 {
		// Tight on space: one defragmentation pass, then just the full
		// items once more.
		t.defragmentLocked()
		for _, i := range full {
			if err := t.mutateLocked(mutPut, items[i].Key, items[i].Val); err != nil {
				fail(i, err)
			}
		}
	}
	if t.gapBytes >= t.liveBytes && t.gapBytes >= t.pageSize {
		t.defragmentLocked()
	}
	return errs
}

// rewriteLocked replaces an existing cell's payload, reusing its slot when
// the new payload fits in size+reservation, otherwise relocating.
// Called with t.mu held.
func (t *Trunk) rewriteLocked(key uint64, e entry, payload []byte) error {
	newSize := int32(len(payload))
	if newSize <= e.size+e.reserved {
		// In-place: the slot keeps its total span; the delta moves
		// between size and reservation.
		span := e.size + e.reserved
		copy(t.buf[e.offset+headerSize:], payload)
		delta := int64(newSize - e.size)
		t.liveBytes += delta
		t.reservedBytes -= delta
		e.size = newSize
		e.reserved = span - newSize
		t.writeHeader(e.offset, key, e.size, e.reserved)
		t.index[key] = e
		return nil
	}
	off, err := t.moveLocked(key, e, newSize, int32(t.reserve(int(e.size), int(newSize-e.size))))
	if err != nil {
		return err
	}
	copy(t.buf[off+headerSize:], payload)
	return nil
}

// moveLocked allocates a slot for a size-byte payload with the given
// reservation (none when the trunk is too tight for it), indexes the key
// there and abandons the old slot as a gap. It returns the new record's
// offset; the payload bytes are the caller's to write. The old slot's
// bytes stay intact until the next defragmentation pass, so a caller may
// copy straight from them. Called with t.mu held.
func (t *Trunk) moveLocked(key uint64, e entry, size, reserved int32) (int64, error) {
	need := int64(headerSize) + int64(size) + int64(reserved)
	off, err := t.alloc(need)
	if err != nil && reserved > 0 {
		// Tight on space: retry without the luxury reservation.
		reserved = 0
		need = int64(headerSize) + int64(size)
		off, err = t.alloc(need)
	}
	if err != nil {
		return 0, err
	}
	oldSpan := int64(headerSize) + int64(e.size) + int64(e.reserved)
	t.gapBytes += oldSpan
	t.reservedBytes -= int64(e.reserved)
	t.liveBytes -= int64(headerSize) + int64(e.size)

	t.writeHeader(off, key, size, reserved)
	t.index[key] = entry{offset: off, size: size, reserved: reserved}
	t.liveBytes += int64(headerSize) + int64(size)
	t.reservedBytes += int64(reserved)
	t.stats.Allocs++
	t.stats.Relocations++
	return off, nil
}

// Append extends a cell's payload with extra bytes. If the cell's
// short-lived reservation can absorb the growth the operation is in-place;
// otherwise the cell is relocated with a fresh reservation.
func (t *Trunk) Append(key uint64, extra []byte) error {
	return t.mutate(mutAppend, key, extra)
}

// appendLocked grows an existing cell by extra. Called with t.mu held.
func (t *Trunk) appendLocked(key uint64, e entry, extra []byte) error {
	growth := int32(len(extra))
	if growth <= e.reserved {
		copy(t.buf[e.offset+headerSize+int64(e.size):], extra)
		t.growLocked(key, e, growth)
		return nil
	}
	// Relocate with room for the new bytes plus a fresh reservation,
	// copying the old payload buffer to buffer.
	off, err := t.moveLocked(key, e, e.size+growth, int32(t.reserve(int(e.size), len(extra))))
	if err != nil {
		return err
	}
	n := copy(t.buf[off+headerSize:], t.buf[e.offset+headerSize:e.offset+headerSize+int64(e.size)])
	copy(t.buf[off+headerSize+int64(n):], extra)
	return nil
}

// growLocked moves growth bytes of a cell's reservation into its payload,
// once the caller has written them there. Called with t.mu held.
func (t *Trunk) growLocked(key uint64, e entry, growth int32) {
	e.size += growth
	e.reserved -= growth
	t.writeHeader(e.offset, key, e.size, e.reserved)
	t.index[key] = e
	t.liveBytes += int64(growth)
	t.reservedBytes -= int64(growth)
	t.stats.InPlaceGrowth++
}

// ListAppend appends elem to a length-prefixed list inside the cell's
// payload: a u32 element count followed by count elements of len(elem)
// bytes each. locate runs on the payload under the exclusive mutex and
// returns the offset of the list's count; elem goes in after the list's
// last element, the bytes behind the list move up by len(elem), and the
// count goes up by one. ListAppend returns the count offset it used, so a
// log can replay the append with a fixed one.
//
// This is the §6.1 in-place growth of a cell: when the cell's reservation
// absorbs elem the append is one memmove of the bytes after the list;
// otherwise the cell is relocated once with a fresh reservation, copied
// buffer to buffer. Like Append it retries once after a defragmentation
// pass on ErrFull and ends with mutate's compaction rule. A count offset
// or list end outside the cell is an error; the cell is then untouched.
// locate must not retain the payload or call back into this trunk.
func (t *Trunk) ListAppend(key uint64, locate func(payload []byte) (int, error), elem []byte) (countOff int, err error) {
	t.mu.Lock()
	countOff, err = t.listAppendLocked(key, locate, elem)
	if errors.Is(err, ErrFull) && t.defragmentLocked() > 0 {
		countOff, err = t.listAppendLocked(key, locate, elem)
	}
	if t.gapBytes >= t.liveBytes && t.gapBytes >= t.pageSize {
		t.defragmentLocked()
	}
	t.mu.Unlock()
	return countOff, err
}

// listAppendLocked applies one ListAppend without retrying. Called with
// t.mu held.
func (t *Trunk) listAppendLocked(key uint64, locate func([]byte) (int, error), elem []byte) (int, error) {
	e, ok := t.index[key]
	if !ok {
		return 0, ErrNotFound
	}
	base := e.offset + headerSize
	size := int64(e.size)
	countOff, err := locate(t.buf[base : base+size])
	if err != nil {
		return 0, err
	}
	if len(elem) == 0 || countOff < 0 || int64(countOff)+4 > size {
		return 0, fmt.Errorf("trunk: list count at %d of a %d-byte cell %#x (element %d bytes)", countOff, size, key, len(elem))
	}
	count := binary.LittleEndian.Uint32(t.buf[base+int64(countOff):])
	end := int64(countOff) + 4 + int64(count)*int64(len(elem))
	if end > size {
		return 0, fmt.Errorf("trunk: list of %d elements at %d overruns the %d-byte cell %#x", count, countOff, size, key)
	}
	growth := int32(len(elem))
	if growth <= e.reserved {
		copy(t.buf[base+end+int64(growth):], t.buf[base+end:base+size])
		copy(t.buf[base+end:], elem)
		binary.LittleEndian.PutUint32(t.buf[base+int64(countOff):], count+1)
		t.growLocked(key, e, growth)
		return countOff, nil
	}
	off, err := t.moveLocked(key, e, e.size+growth, int32(t.reserve(int(e.size), len(elem))))
	if err != nil {
		return 0, err
	}
	dst := off + headerSize
	copy(t.buf[dst:], t.buf[base:base+end])
	copy(t.buf[dst+end:], elem)
	copy(t.buf[dst+end+int64(growth):], t.buf[base+end:base+size])
	binary.LittleEndian.PutUint32(t.buf[dst+int64(countOff):], count+1)
	return countOff, nil
}

// Get copies the cell's payload into a fresh slice (nil for an empty
// payload).
func (t *Trunk) Get(key uint64) ([]byte, error) {
	return t.ReadInto(key, nil)
}

// ReadInto appends the cell's payload to dst and returns the extended
// slice, like append: the caller brings the buffer, so a hot loop reading
// many cells (the multi-get handler) performs zero per-cell allocations.
// dst is returned unchanged on ErrNotFound.
func (t *Trunk) ReadInto(key uint64, dst []byte) ([]byte, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.index[key]
	if !ok {
		return dst, ErrNotFound
	}
	return append(dst, t.buf[e.offset+headerSize:e.offset+headerSize+int64(e.size)]...), nil
}

// Size returns the payload size of a cell without copying it.
func (t *Trunk) Size(key uint64) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.index[key]
	if !ok {
		return 0, ErrNotFound
	}
	return int(e.size), nil
}

// Contains reports whether the key exists.
func (t *Trunk) Contains(key uint64) bool {
	t.mu.RLock()
	_, ok := t.index[key]
	t.mu.RUnlock()
	return ok
}

// View invokes fn with a read-only, zero-copy slice of the cell's payload.
// The trunk is read-locked for the duration, so the cell can neither move
// nor change; fn must not write the slice or retain it.
func (t *Trunk) View(key uint64, fn func(payload []byte) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	e, ok := t.index[key]
	if !ok {
		return ErrNotFound
	}
	return fn(t.buf[e.offset+headerSize : e.offset+headerSize+int64(e.size)])
}

// Update invokes fn with a writable, zero-copy slice of the cell's payload
// under the exclusive trunk mutex: fn may write the slice in place (the
// size is fixed) but must not retain it, and must not call back into this
// trunk, which would deadlock. This is the mechanism behind TSL cell
// accessors.
func (t *Trunk) Update(key uint64, fn func(payload []byte) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.index[key]
	if !ok {
		return ErrNotFound
	}
	return fn(t.buf[e.offset+headerSize : e.offset+headerSize+int64(e.size)])
}

// Remove deletes a cell, leaving a gap, and ends with mutate's compaction
// rule.
func (t *Trunk) Remove(key uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.index[key]
	if !ok {
		return ErrNotFound
	}
	t.gapBytes += int64(headerSize) + int64(e.size) + int64(e.reserved)
	t.liveBytes -= int64(headerSize) + int64(e.size)
	t.reservedBytes -= int64(e.reserved)
	delete(t.index, key)
	if t.gapBytes >= t.liveBytes && t.gapBytes >= t.pageSize {
		t.defragmentLocked()
	}
	return nil
}

// ForEach calls fn for every live cell until fn returns false. The
// iteration order is unspecified. fn receives a zero-copy payload slice it
// must not retain. The trunk is read-locked for the whole scan.
func (t *Trunk) ForEach(fn func(key uint64, payload []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for key, e := range t.index {
		if !fn(key, t.buf[e.offset+headerSize:e.offset+headerSize+int64(e.size)]) {
			return
		}
	}
}

// Keys returns the live keys in unspecified order.
func (t *Trunk) Keys() []uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]uint64, 0, len(t.index))
	for k := range t.index {
		keys = append(keys, k)
	}
	return keys
}

// defragmentLocked performs one defragmentation pass: it scans the
// committed region from the tail, drops dead records and wrap fillers,
// re-appends live records at the head (trimming their now-expired
// reservations), and advances the committed tail so dead pages can be
// decommitted. It stops once no gap or reservation is left, so it moves
// at most the live bytes. It returns the number of bytes reclaimed.
// Called with t.mu held exclusively.
func (t *Trunk) defragmentLocked() int64 {
	if t.gapBytes == 0 && t.reservedBytes == 0 {
		return 0
	}
	if t.defragNs != nil {
		start := time.Now()
		defer func() { t.defragNs.Observe(int64(time.Since(start))) }()
	}
	reclaimed := int64(0)
	toScan := t.used
	cap := int64(len(t.buf))
	for toScan > 0 && (t.gapBytes > 0 || t.reservedBytes > 0) {
		// Implicit wrap: not enough room at the end for even a header.
		if cap-t.tail < headerSize {
			skip := cap - t.tail
			t.tail = 0
			t.used -= skip
			t.gapBytes -= skip
			toScan -= skip
			reclaimed += skip
			continue
		}
		key, size, reserved := t.readHeader(t.tail)
		span := int64(headerSize) + int64(size) + int64(reserved)
		if key == wrapKey {
			t.tail = 0
			t.used -= span
			t.gapBytes -= span
			toScan -= span
			reclaimed += span
			continue
		}
		e, ok := t.index[key]
		if !ok || e.offset != t.tail {
			// Dead record (removed, overwritten, or relocated).
			t.advanceTail(span)
			t.gapBytes -= span
			toScan -= span
			reclaimed += span
			continue
		}
		// Live record: move it to the head.
		payload := t.scratchCopy(t.buf[t.tail+headerSize : t.tail+headerSize+int64(size)])
		t.advanceTail(span)
		toScan -= span
		t.liveBytes -= int64(headerSize) + int64(size)
		t.reservedBytes -= int64(reserved)
		reclaimed += int64(reserved)
		off, err := t.alloc(int64(headerSize) + int64(size))
		if err != nil {
			// Cannot happen in practice: we just freed at least `span`
			// bytes, which covers the reservation-free copy. Restore a
			// consistent state defensively.
			t.liveBytes += int64(headerSize) + int64(size)
			t.reservedBytes += int64(reserved)
			break
		}
		t.writeHeader(off, key, size, 0)
		copy(t.buf[off+headerSize:], payload)
		t.index[key] = entry{offset: off, size: size}
		t.liveBytes += int64(headerSize) + int64(size)
		t.stats.CellsMoved++
		t.stats.BytesMoved += int64(size)
	}
	t.decommitDead()
	t.stats.DefragPasses++
	if t.reclaimedBytes != nil {
		t.reclaimedBytes.Add(reclaimed)
	}
	return reclaimed
}

// advanceTail moves the committed tail forward by span, handling the exact
// end-of-buffer case. Called with t.mu held.
func (t *Trunk) advanceTail(span int64) {
	t.tail += span
	if t.tail >= int64(len(t.buf)) {
		t.tail -= int64(len(t.buf))
	}
	t.used -= span
}

func (t *Trunk) scratchCopy(b []byte) []byte {
	if cap(t.scratch) < len(b) {
		t.scratch = make([]byte, len(b)*2) //alloc:ok reusable scratch, doubles rarely
	}
	s := t.scratch[:len(b)]
	copy(s, b)
	return s
}

// dump format constants.
const (
	dumpMagic   = 0x54524e4b // "TRNK"
	dumpVersion = 1
)

// DumpTo serializes all live cells to w in a compact, checksummed format.
// It is used by the Trinity File System backup path and by checkpointing.
// The trunk is read-locked for the whole dump, so an Update writing a cell
// in place cannot leave a half-written copy in it.
func (t *Trunk) DumpTo(w io.Writer) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], dumpMagic)
	binary.LittleEndian.PutUint32(hdr[4:], dumpVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.index)))
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := w.Write(hdr[:16]); err != nil {
		return err
	}
	var rec [12]byte
	for key, e := range t.index {
		binary.LittleEndian.PutUint64(rec[0:], key)
		binary.LittleEndian.PutUint32(rec[8:], uint32(e.size))
		if _, err := mw.Write(rec[:]); err != nil {
			return err
		}
		if _, err := mw.Write(t.buf[e.offset+headerSize : e.offset+headerSize+int64(e.size)]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(hdr[0:], crc.Sum32())
	_, err := w.Write(hdr[:4])
	return err
}

// LoadFrom restores cells from a dump produced by DumpTo, replacing the
// trunk's current contents.
func (t *Trunk) LoadFrom(r io.Reader) error {
	if t.reloadNs != nil {
		start := time.Now()
		defer func() { t.reloadNs.Observe(int64(time.Since(start))) }()
	}
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != dumpMagic {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != dumpVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])

	t.mu.Lock()
	t.index = make(map[uint64]entry, count)
	t.head, t.tail, t.used = 0, 0, 0
	t.liveBytes, t.gapBytes, t.reservedBytes = 0, 0, 0
	t.mu.Unlock()

	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	var rec [12]byte
	var payload []byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(tr, rec[:]); err != nil {
			return fmt.Errorf("%w: truncated record %d: %v", ErrCorrupt, i, err)
		}
		key := binary.LittleEndian.Uint64(rec[0:])
		size := binary.LittleEndian.Uint32(rec[8:])
		if int64(size) > int64(len(t.buf)) {
			return fmt.Errorf("%w: record %d size %d exceeds capacity", ErrCorrupt, i, size)
		}
		if cap(payload) < int(size) {
			payload = make([]byte, size) //alloc:ok startup-only snapshot load, buffer reused across records
		}
		payload = payload[:size]
		if _, err := io.ReadFull(tr, payload); err != nil {
			return fmt.Errorf("%w: truncated payload %d: %v", ErrCorrupt, i, err)
		}
		if err := t.Add(key, payload); err != nil {
			return err
		}
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return fmt.Errorf("%w: missing checksum: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc.Sum32() {
		return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return nil
}
