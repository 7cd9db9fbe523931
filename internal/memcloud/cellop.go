// Single-cell operations (paper §3, §4.4): the op table, the owner-side
// handler and the client loop that Get, Put, Add, Remove, Append and
// Contains all run through, the §6.2 re-route step, and the mapping
// between sentinel errors and wire codes.

package memcloud

import (
	"context"
	"errors"
	"fmt"
	"time"

	"trinity/internal/msg"
	"trinity/internal/trunk"
)

// cellOp is one row of the single-cell operation table (paper §3, §4.4):
// all that distinguishes one atomic cell operation from another. The
// owner-side handler (serve), the client (do) and the WAL (loggedApply)
// are written once against it.
type cellOp struct {
	// proto is the wire protocol the owner serves the op on. Every request
	// is key(8) + value; reads send an empty value.
	proto msg.ProtocolID
	// wal is the record op logged under buffered logging once apply has
	// succeeded; 0 marks a read, which is never logged.
	wal byte
	// apply runs the op on the key's trunk and returns the reply payload.
	apply func(t *trunk.Trunk, key uint64, val []byte) ([]byte, error)
}

// Indexes into cellOps.
const (
	cellGet = iota
	cellPut
	cellAdd
	cellRemove
	cellAppend
	cellContains
)

// Contains replies; shared because no caller writes to a reply.
var containsYes, containsNo = []byte{1}, []byte{0}

var cellOps = [...]cellOp{
	cellGet: {protoGetCell, 0, func(t *trunk.Trunk, key uint64, _ []byte) ([]byte, error) {
		return t.Get(key)
	}},
	cellPut: {protoPutCell, opPut, func(t *trunk.Trunk, key uint64, val []byte) ([]byte, error) {
		return nil, t.Put(key, val)
	}},
	// Add logs opPut: replay's Put is idempotent and the Add already won
	// its race when the record was written.
	cellAdd: {protoAddCell, opPut, func(t *trunk.Trunk, key uint64, val []byte) ([]byte, error) {
		return nil, t.Add(key, val)
	}},
	cellRemove: {protoRemoveCell, opRemove, func(t *trunk.Trunk, key uint64, _ []byte) ([]byte, error) {
		return nil, t.Remove(key)
	}},
	cellAppend: {protoAppendCell, opAppend, func(t *trunk.Trunk, key uint64, val []byte) ([]byte, error) {
		return nil, t.Append(key, val)
	}},
	cellContains: {protoContains, 0, func(t *trunk.Trunk, key uint64, _ []byte) ([]byte, error) {
		if t.Contains(key) {
			return containsYes, nil
		}
		return containsNo, nil
	}},
}

func (s *Slave) serveTrunk(key uint64) (*trunk.Trunk, error) {
	tid := s.trunkFor(key)
	if t := s.localTrunk(tid); t != nil {
		return t, nil
	}
	return nil, s.disclaim(tid)
}

// disclaim is the wrong-owner answer for a trunk this machine does not
// hold.
func (s *Slave) disclaim(tid uint32) error {
	return msg.WithCode(codeWrongOwner,
		fmt.Errorf("%w: trunk %d on machine %d", ErrWrongOwner, tid, s.id))
}

// serve is the owner side of every single-cell protocol: decode, find
// the trunk (waiting while it is being installed, or disclaiming it with
// ErrWrongOwner), apply and log the op.
func (s *Slave) serve(op *cellOp) msg.SyncHandler {
	return func(ctx context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
		key, val, err := decodeKV(req)
		if err != nil {
			return nil, err
		}
		tid := s.trunkFor(key)
		t := s.ownedTrunk(ctx, tid)
		if t == nil {
			return nil, s.disclaim(tid)
		}
		out, err := s.loggedApply(op, t, key, val)
		return out, mapTrunkErr(err)
	}
}

// MaxRetries bounds how many times one operation may be re-routed through
// a refreshed addressing table before it fails. The new owner waits for a
// trunk it is installing (ownedTrunk), but a re-route can still reach it
// before it has applied the new table and draw another wrong-owner
// disclaimer.
const MaxRetries = 3

// Rerouter is the slice of a *Slave the §6.2 failure step needs.
type Rerouter interface {
	// ReportFailure tells the leader machine m is unreachable (step 1).
	ReportFailure(ctx context.Context, m msg.MachineID) error
	// RefreshTable re-reads the addressing table (step 2).
	RefreshTable(ctx context.Context)
}

// Reroute is the §6.2 step taken after an exchange with owner failed with
// err: an unreachable or silent owner is reported to the leader, then the
// addressing table is refreshed. It reports whether a retry can help;
// false means err is not a routing failure and the caller fails with it.
// Both the synchronous client (do) and the batching pipeline
// (internal/memcloud/batch) recover through this one step, each at most
// MaxRetries times per operation. A trunk the named owner is still
// installing is waited for at the owner (ownedTrunk), not here.
func Reroute(ctx context.Context, r Rerouter, owner msg.MachineID, err error) bool {
	switch {
	case errors.Is(err, msg.ErrUnreachable), errors.Is(err, msg.ErrTimeout):
		// The report's error only says whether a leader acknowledged it;
		// the refresh below re-routes either way.
		_ = r.ReportFailure(ctx, owner)
	case errors.Is(err, ErrWrongOwner):
	default:
		return false
	}
	r.RefreshTable(ctx)
	return true
}

// do runs op against the key's owner — in place when that is this slave,
// over the wire otherwise — retrying through Reroute on failure. A fired
// context stops the retry loop immediately: the caller's budget is spent,
// so reporting and refreshing on its behalf would only delay the ctx.Err
// it is owed.
func (s *Slave) do(ctx context.Context, op *cellOp, key uint64, val []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			s.retries.Add(1)
		}
		tid := s.trunkFor(key)
		owner := s.member.Table().Machine(tid)
		if owner == s.id {
			if t := s.ownedTrunk(ctx, tid); t != nil {
				s.localOps.Add(1)
				out, err := s.loggedApply(op, t, key, val)
				return out, mapTrunkErr(err)
			}
			// The table says we own it, but the trunk is neither here
			// nor being installed.
			lastErr = ErrWrongOwner
		} else {
			s.remoteOps.Add(1)
			out, err := s.node.Call(ctx, owner, op.proto, encodeKV(key, val))
			if err == nil {
				return out, nil
			}
			lastErr = remoteErr(err)
			if errors.Is(lastErr, ErrNotFound) || errors.Is(lastErr, ErrExists) {
				return nil, lastErr
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		if !Reroute(ctx, s, owner, lastErr) {
			return nil, lastErr
		}
	}
	return nil, fmt.Errorf("%w: key %#x: %v", ErrRetriesExhausted, key, lastErr)
}

// Get returns the cell's value.
func (s *Slave) Get(ctx context.Context, key uint64) ([]byte, error) {
	defer s.observeSince(s.getNs, time.Now())
	return s.do(ctx, &cellOps[cellGet], key, nil)
}

// Put inserts or overwrites a cell. Under buffered logging an error from
// the log append means the write is not acknowledged — not that it was not
// applied: the owner's memory may already show it, but it will not survive
// the owner's failure. The same holds for Add, Remove and Append.
func (s *Slave) Put(ctx context.Context, key uint64, val []byte) error {
	defer s.observeSince(s.setNs, time.Now())
	_, err := s.do(ctx, &cellOps[cellPut], key, val)
	return err
}

// Add inserts a new cell, failing with ErrExists if present.
func (s *Slave) Add(ctx context.Context, key uint64, val []byte) error {
	_, err := s.do(ctx, &cellOps[cellAdd], key, val)
	return err
}

// Remove deletes a cell.
func (s *Slave) Remove(ctx context.Context, key uint64) error {
	_, err := s.do(ctx, &cellOps[cellRemove], key, nil)
	return err
}

// Append extends a cell's value (adjacency-list growth).
func (s *Slave) Append(ctx context.Context, key uint64, extra []byte) error {
	_, err := s.do(ctx, &cellOps[cellAppend], key, extra)
	return err
}

// Contains reports whether the cell exists anywhere in the cloud.
func (s *Slave) Contains(ctx context.Context, key uint64) (bool, error) {
	out, err := s.do(ctx, &cellOps[cellContains], key, nil)
	return len(out) == 1 && out[0] == 1, err
}

// Wire error codes: handlers tag their sentinel errors with msg.WithCode
// so the code — not the message text — identifies the sentinel on the
// caller's side.
const (
	codeNotFound byte = iota + 1
	codeExists
	codeWrongOwner
)

// mapTrunkErr converts trunk errors to stable memcloud errors, tagged
// with the wire code that identifies them after crossing a machine
// boundary.
func mapTrunkErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, trunk.ErrNotFound):
		return msg.WithCode(codeNotFound, ErrNotFound)
	case errors.Is(err, trunk.ErrExists):
		return msg.WithCode(codeExists, ErrExists)
	default:
		return err
	}
}

// remoteErr maps an error that crossed the wire back to its sentinel by
// the one-byte wire code every memcloud handler attaches.
func remoteErr(err error) error {
	switch msg.ErrorCode(err) {
	case codeNotFound:
		return ErrNotFound
	case codeExists:
		return ErrExists
	case codeWrongOwner:
		return ErrWrongOwner
	}
	return err
}
