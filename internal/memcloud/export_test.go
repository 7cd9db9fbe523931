package memcloud

import "time"

// DelayTrunk takes the trunk holding key out of s and marks it as being
// installed, as if the table had just named s its owner and recovery
// were still loading the trunk from TFS, and puts it back after d.
func DelayTrunk(s *Slave, key uint64, d time.Duration) {
	tid := s.trunkFor(key)
	s.mu.Lock()
	t := s.trunks[tid]
	delete(s.trunks, tid)
	s.installing[tid] = true
	s.trunkGen.Add(1)
	s.trunksMovedLocked()
	s.mu.Unlock()
	time.AfterFunc(d, func() {
		s.mu.Lock()
		s.trunks[tid] = t
		delete(s.installing, tid)
		s.trunkGen.Add(1)
		s.trunksMovedLocked()
		s.mu.Unlock()
	})
}
