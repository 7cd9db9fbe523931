// Persistence and recovery: trunk dumps to TFS and the hooks the cluster
// layer calls when the addressing table moves trunks between machines.

package memcloud

import (
	"bytes"
	"fmt"

	"trinity/internal/trunk"
)

func trunkFile(tid uint32) string { return fmt.Sprintf("trunks/%d", tid) }
func walFile(tid uint32) string   { return fmt.Sprintf("wal/%d", tid) }

// BackupTrunks dumps every local trunk to TFS and truncates its log.
func (s *Slave) BackupTrunks() error {
	s.mu.RLock()
	trunks := make(map[uint32]*trunk.Trunk, len(s.trunks))
	for id, t := range s.trunks {
		trunks[id] = t
	}
	s.mu.RUnlock()
	for tid, t := range trunks {
		if err := s.backupTrunk(tid, t); err != nil {
			return err
		}
	}
	return nil
}

// backupTrunk dumps one trunk and truncates its log, atomically with
// respect to concurrent mutations (see loggedApply). The truncation
// comes only after the dump is safely in TFS: a crash mid-backup leaves
// the old dump plus a complete log, never a dump with no log behind it.
func (s *Slave) backupTrunk(tid uint32, t *trunk.Trunk) error {
	if s.cfg.BufferedLogging {
		mu := &s.walMu[tid]
		mu.Lock()
		defer mu.Unlock()
	}
	var buf bytes.Buffer
	if err := t.DumpTo(&buf); err != nil {
		return err
	}
	if err := s.fs.WriteFile(trunkFile(tid), buf.Bytes()); err != nil {
		return err
	}
	if s.cfg.BufferedLogging {
		if err := s.fs.WriteFile(walFile(tid), nil); err != nil {
			return fmt.Errorf("memcloud: truncate wal of trunk %d: %w", tid, err)
		}
	}
	return nil
}

// acquireTrunks is the recovery hook: reload trunks from TFS after the
// addressing table assigned them to this machine.
func (s *Slave) acquireTrunks(tids []uint32) {
	s.mu.Lock()
	for _, tid := range tids {
		s.installing[tid] = true
	}
	s.mu.Unlock()
	for _, tid := range tids {
		t := s.newTrunk()
		if data, err := s.fs.ReadFile(trunkFile(tid)); err == nil {
			if err := t.LoadFrom(bytes.NewReader(data)); err != nil {
				t = s.newTrunk() // corrupt dump: start empty
			}
		}
		if s.cfg.BufferedLogging {
			if log, err := s.fs.ReadFile(walFile(tid)); err == nil {
				// Best effort: a corrupt record stops replay at the last
				// decodable prefix; everything before it is applied.
				_ = replay(t, log, false)
			}
		}
		s.mu.Lock()
		if _, exists := s.trunks[tid]; !exists {
			s.trunks[tid] = t
			s.trunkGen.Add(1)
			s.recoveries.Add(1)
		}
		delete(s.installing, tid)
		s.trunksMovedLocked()
		s.mu.Unlock()
	}
}

// releaseTrunks backs up and drops trunks that moved to another machine.
// The backup also truncates the trunk's log: the dump covers everything,
// and a stale log replayed by the new owner would double-apply Appends.
func (s *Slave) releaseTrunks(tids []uint32) {
	for _, tid := range tids {
		s.mu.Lock()
		t := s.trunks[tid]
		if t != nil {
			delete(s.trunks, tid)
			s.trunkGen.Add(1)
			s.trunksMovedLocked()
		}
		s.mu.Unlock()
		if t != nil {
			s.backupTrunk(tid, t)
		}
	}
}
