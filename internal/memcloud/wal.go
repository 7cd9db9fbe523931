// Buffered logging (RAMCloud-style, §6.2): per-op and group-commit WAL
// records appended to TFS, and their replay on recovery.

package memcloud

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trinity/internal/trunk"
)

const (
	opPut byte = iota + 1
	opRemove
	opAppend
	// opGroup frames a group-commit record: op(1) bodyLen(4) body, where
	// body is a concatenation of plain records (one per write in the
	// multi-put batch that succeeded on its trunk). The whole group lands
	// in one AppendFile, so a batch of N writes costs one TFS append
	// instead of N; the length prefix lets replay distinguish a crash-
	// truncated tail (ignored, the writes were never acked) from garbage
	// inside a fully appended group (an error).
	opGroup
	// opListAppend is a Slave.ListAppend: a plain record whose value is
	// the list's resolved count offset (u32) followed by the element.
	opListAppend
)

// encodeGroupRecord builds one opGroup WAL record covering the writes in
// the batch that succeeded (errs nil, or nil at that index). Failed
// writes mutated nothing, so they must not replay. Returns nil when no
// write succeeded. Sub-records use the plain single-record layout with
// opPut.
func encodeGroupRecord(items []trunk.BatchItem, errs []error) []byte {
	body := 0
	for i := range items {
		if errs == nil || errs[i] == nil {
			body += 13 + len(items[i].Val)
		}
	}
	if body == 0 {
		return nil
	}
	rec := make([]byte, 5, 5+body) //alloc:ok one WAL group record per batch; that amortization is the point
	rec[0] = opGroup
	binary.LittleEndian.PutUint32(rec[1:], uint32(body))
	var hdr [13]byte
	for i := range items {
		if errs != nil && errs[i] != nil {
			continue
		}
		hdr[0] = opPut
		binary.LittleEndian.PutUint64(hdr[1:], items[i].Key)
		binary.LittleEndian.PutUint32(hdr[9:], uint32(len(items[i].Val)))
		rec = append(rec, hdr[:]...)
		rec = append(rec, items[i].Val...)
	}
	return rec
}

// loggedApply runs a cell op on its trunk and, for a mutation under
// buffered logging, appends its record to the trunk's TFS log ("the key
// idea is to log operations to remote memory buffers before committing
// them to the local memory" — TFS plays the remote buffer here). The
// trunk's wal lock is held in read mode across both steps so a concurrent
// backup cannot dump the mutated trunk and then truncate the log before
// the record lands: every mutation is in the dump that the truncation
// trusts, or in the log, or both (replay of Put/Remove is idempotent;
// Append records truncated with their covering dump are never replayed
// twice). A failed append is returned after the mutation has been applied:
// the caller must treat the op as not acknowledged.
func (s *Slave) loggedApply(op *cellOp, t *trunk.Trunk, key uint64, val []byte) ([]byte, error) {
	if op.wal == 0 || !s.cfg.BufferedLogging {
		return op.apply(t, key, val)
	}
	tid := s.trunkFor(key)
	mu := &s.walMu[tid]
	mu.RLock()
	defer mu.RUnlock()
	out, err := op.apply(t, key, val)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 13+len(val)) //alloc:ok per-op WAL record; batched writers use the group-commit path
	rec[0] = op.wal
	binary.LittleEndian.PutUint64(rec[1:], key)
	binary.LittleEndian.PutUint32(rec[9:], uint32(len(val)))
	copy(rec[13:], val)
	return out, s.appendWAL(tid, rec)
}

// loggedListAppend is ListAppend under buffered logging, kept apart so
// the unlogged path's frames stay small (see trunk.mutate): the append and
// its opListAppend record are one critical section with respect to
// backup, exactly as in loggedApply.
func (s *Slave) loggedListAppend(t *trunk.Trunk, key uint64, locate func([]byte) (int, error), elem []byte) error {
	tid := s.trunkFor(key)
	mu := &s.walMu[tid]
	mu.RLock()
	defer mu.RUnlock()
	countOff, err := t.ListAppend(key, locate, elem)
	if err != nil {
		return mapTrunkErr(err)
	}
	rec := make([]byte, 17+len(elem)) //alloc:ok per-op WAL record, as in loggedApply
	rec[0] = opListAppend
	binary.LittleEndian.PutUint64(rec[1:], key)
	binary.LittleEndian.PutUint32(rec[9:], uint32(4+len(elem)))
	binary.LittleEndian.PutUint32(rec[13:], uint32(countOff))
	copy(rec[17:], elem)
	return s.appendWAL(tid, rec)
}

// appendWAL appends one encoded record — a single op's or a multi-put
// group's — to the trunk's log. Called with the trunk's wal lock held.
func (s *Slave) appendWAL(tid uint32, rec []byte) error {
	if err := s.fs.AppendFile(walFile(tid), rec); err != nil {
		return fmt.Errorf("memcloud: wal append: %w", err)
	}
	s.walBytesAppended.Add(int64(len(rec)))
	return nil
}

// replay applies a mutation log to a trunk. A truncated tail — the normal
// residue of a crash mid-append — stops replay cleanly with a nil error:
// the half-written record was never acked. Garbage that cannot be a crash
// artifact (an unknown op code, or a malformed record inside a fully
// appended group) stops replay with an error so recovery can count the
// corruption; replay never panics, whatever the bytes. inGroup is false
// for a log and true for the body of a group record, which was framed
// whole: there a short record is corruption, not a crash tail.
func replay(t *trunk.Trunk, log []byte, inGroup bool) error {
	for len(log) > 0 {
		if log[0] == opGroup && !inGroup {
			if len(log) < 5 {
				return nil // truncated tail: group header cut off
			}
			n := int(binary.LittleEndian.Uint32(log[1:]))
			if n < 0 || n > len(log)-5 {
				return nil // truncated tail: crash mid group append
			}
			if err := replay(t, log[5:5+n], true); err != nil {
				return err
			}
			log = log[5+n:]
			continue
		}
		if len(log) < 13 {
			if inGroup {
				return fmt.Errorf("memcloud: wal record truncated at %d bytes", len(log))
			}
			return nil
		}
		op := log[0]
		key := binary.LittleEndian.Uint64(log[1:])
		n := int(binary.LittleEndian.Uint32(log[9:]))
		log = log[13:]
		if n < 0 || n > len(log) {
			if inGroup {
				return fmt.Errorf("memcloud: wal value truncated (%d of %d bytes)", len(log), n)
			}
			return nil
		}
		val := log[:n]
		log = log[n:]
		switch op {
		case opPut:
			t.Put(key, val)
		case opRemove:
			t.Remove(key)
		case opAppend:
			if err := t.Append(key, val); errors.Is(err, trunk.ErrNotFound) {
				t.Put(key, val)
			}
		case opListAppend:
			if len(val) < 4 {
				return fmt.Errorf("memcloud: wal list append of %d bytes", len(val))
			}
			countOff := int(binary.LittleEndian.Uint32(val))
			locate := func([]byte) (int, error) { return countOff, nil }
			if _, err := t.ListAppend(key, locate, val[4:]); err != nil {
				return fmt.Errorf("memcloud: wal list append to %#x: %w", key, err)
			}
		default:
			return fmt.Errorf("memcloud: unknown wal op %d", op)
		}
	}
	return nil
}
