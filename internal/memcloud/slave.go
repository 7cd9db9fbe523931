// Slave: one machine of the memory cloud — its trunk set, the batch
// protocol handlers, and local (network-free) cell access and enumeration.

package memcloud

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/cluster"
	"trinity/internal/hash"
	"trinity/internal/msg"
	"trinity/internal/obs"
	"trinity/internal/tfs"
	"trinity/internal/trunk"
)

// Slave is one machine of the memory cloud: it stores the trunks assigned
// to it by the addressing table, serves remote cell operations, and acts
// as a client access point for local applications.
type Slave struct {
	id     msg.MachineID
	node   *msg.Node
	member *cluster.Member
	fs     *tfs.FS
	cfg    Config
	alive  atomic.Bool

	mu     sync.RWMutex
	trunks map[uint32]*trunk.Trunk
	// installing holds the trunks recovery has been assigned here and is
	// still loading from TFS (acquireTrunks). Guarded by mu.
	installing map[uint32]bool
	// moved is closed, and replaced, whenever trunks or installing
	// changes: a cell operation waiting for an install selects on it.
	// Guarded by mu.
	moved chan struct{}
	// trunkGen counts changes to the set of trunks held here. It moves
	// under mu together with trunks, and is read without it.
	trunkGen atomic.Uint64

	// walMu[tid] makes (trunk mutation + wal append) atomic with respect
	// to (trunk dump + wal truncation). Mutators hold it in read mode,
	// backup holds it exclusively; without it a mutation landing between
	// DumpTo and the truncation is in neither the dump nor the log and is
	// silently lost on recovery. Indexed by trunk id, 1<<P entries.
	walMu []sync.RWMutex

	metrics *obs.Registry
	trunkMx *obs.Scope

	localOps   *obs.Counter
	remoteOps  *obs.Counter
	retries    *obs.Counter
	recoveries *obs.Counter
	getNs      *obs.Histogram
	setNs      *obs.Histogram

	multigetBatches *obs.Counter
	multigetKeys    *obs.Counter

	multiputBatches   *obs.Counter
	multiputKeys      *obs.Counter
	multiputBatchSize *obs.Histogram

	walGroupCommits  *obs.Counter
	walBytesAppended *obs.Counter
}

func newSlave(node *msg.Node, fs *tfs.FS, initial *cluster.Table, cfg Config) *Slave {
	scope := cfg.Metrics.Scope(fmt.Sprintf("memcloud.m%d", node.ID()))
	walScope := cfg.Metrics.Scope(fmt.Sprintf("wal.m%d", node.ID()))
	s := &Slave{
		id:         node.ID(),
		node:       node,
		fs:         fs,
		cfg:        cfg,
		trunks:     make(map[uint32]*trunk.Trunk),
		installing: make(map[uint32]bool),
		moved:      make(chan struct{}),
		walMu:      make([]sync.RWMutex, 1<<cfg.P),
		metrics:    cfg.Metrics,
		trunkMx:    cfg.Metrics.Scope(fmt.Sprintf("trunk.m%d", node.ID())),

		localOps:   scope.Counter("local_ops"),
		remoteOps:  scope.Counter("remote_ops"),
		retries:    scope.Counter("retries"),
		recoveries: scope.Counter("recoveries"),
		getNs:      scope.Histogram("get_ns"),
		setNs:      scope.Histogram("set_ns"),

		multigetBatches: scope.Counter("multiget_batches"),
		multigetKeys:    scope.Counter("multiget_keys"),

		multiputBatches:   scope.Counter("multiput_batches"),
		multiputKeys:      scope.Counter("multiput_keys"),
		multiputBatchSize: scope.Histogram("multiput_batch_size"),

		walGroupCommits:  walScope.Counter("group_commits"),
		walBytesAppended: walScope.Counter("bytes_appended"),
	}
	s.registerTrunkGauges()
	s.alive.Store(true)
	for _, tid := range initial.TrunksOf(s.id) {
		s.trunks[tid] = s.newTrunk()
	}
	hooks := cluster.RecoveryHooks{
		AcquireTrunks: s.acquireTrunks,
		ReleaseTrunks: s.releaseTrunks,
	}
	s.member = cluster.NewMember(node, fs, initial, hooks, cfg.Cluster)
	for i := range cellOps {
		node.HandleSync(cellOps[i].proto, s.serve(&cellOps[i]))
	}
	node.HandleSync(ProtoMultiGet, s.onMultiGet)
	node.HandleSync(ProtoMultiPut, s.onMultiPut)
	return s
}

func (s *Slave) newTrunk() *trunk.Trunk {
	return trunk.New(trunk.Options{
		Capacity: s.cfg.TrunkCapacity,
		PageSize: s.cfg.TrunkPageSize,
		Metrics:  s.trunkMx,
	})
}

// stop takes the slave out of service: membership, then messaging
// runtime. It reports whether this call was the one that stopped it.
func (s *Slave) stop() bool {
	if !s.alive.Swap(false) {
		return false
	}
	s.member.Stop()
	s.node.Close()
	return true
}

// registerTrunkGauges publishes snapshot-time gauges over this slave's
// trunk set: hash-table load (cells), committed bytes, gap bytes (what
// makes a trunk compact itself) and the load factor (live/committed). Func
// gauges cost nothing on the storage hot path — they walk the trunks only
// when a snapshot is taken.
func (s *Slave) registerTrunkGauges() {
	sumStats := func() trunk.Stats {
		var total trunk.Stats
		s.mu.RLock()
		for _, t := range s.trunks {
			st := t.Stats()
			total.CommittedBytes += st.CommittedBytes
			total.LiveBytes += st.LiveBytes
			total.GapBytes += st.GapBytes
			total.Cells += st.Cells
		}
		s.mu.RUnlock()
		return total
	}
	s.trunkMx.Func("cells", func() float64 { return float64(sumStats().Cells) })
	s.trunkMx.Func("committed_bytes", func() float64 { return float64(sumStats().CommittedBytes) })
	s.trunkMx.Func("gap_bytes", func() float64 { return float64(sumStats().GapBytes) })
	s.trunkMx.Func("load_factor", func() float64 {
		st := sumStats()
		if st.CommittedBytes == 0 {
			return 1
		}
		return float64(st.LiveBytes) / float64(st.CommittedBytes)
	})
}

// Alive reports whether the slave is in service: KillMachine and Close
// take it out for good.
func (s *Slave) Alive() bool { return s.alive.Load() }

// ID returns the slave's machine ID.
func (s *Slave) ID() msg.MachineID { return s.id }

// Node exposes the slave's messaging runtime so higher layers (the graph
// engine, BSP, traversal) can register their own TSL protocols.
func (s *Slave) Node() *msg.Node { return s.node }

// Metrics exposes the cloud's observability registry so higher layers
// (BSP, traversal) register their own scopes alongside the storage
// counters.
func (s *Slave) Metrics() *obs.Registry { return s.metrics }

// trunkFor returns the trunk number a key belongs to.
func (s *Slave) trunkFor(key uint64) uint32 {
	return hash.TrunkHash(key, s.member.Table().P)
}

// Owner returns the machine currently hosting the key.
func (s *Slave) Owner(key uint64) msg.MachineID {
	return s.member.Table().Machine(s.trunkFor(key))
}

// LocalGet serves a cell read from this slave's own trunks without
// touching the network. ok reports whether the key is local: when false,
// the caller must go remote (via the fetch pipeline or a per-key Get).
func (s *Slave) LocalGet(key uint64) (val []byte, ok bool, err error) {
	t := s.localTrunk(s.trunkFor(key))
	if t == nil {
		return nil, false, nil
	}
	s.localOps.Add(1)
	v, err := t.Get(key)
	return v, true, mapTrunkErr(err)
}

// RefreshTable synchronously refreshes this slave's addressing-table
// replica from the leader (§6.2 step 2 of the failure protocol).
func (s *Slave) RefreshTable(ctx context.Context) { _ = s.member.RefreshTable(ctx) }

// Table returns this slave's replica of the addressing table.
func (s *Slave) Table() *cluster.Table { return s.member.Table() }

// ReportFailure reports machine m as unreachable to the leader (§6.2
// step 1), which will eventually publish a table that reassigns m's
// trunks to survivors. A nil return means recovery has run (on the leader
// or on this member after winning the vacated flag); an error means no
// reachable leader acknowledged the report and the caller should retry
// after its next table refresh.
func (s *Slave) ReportFailure(ctx context.Context, m msg.MachineID) error {
	return s.member.ReportFailure(ctx, m)
}

// localTrunk returns the local trunk for the number, or nil.
func (s *Slave) localTrunk(tid uint32) *trunk.Trunk {
	s.mu.RLock()
	t := s.trunks[tid]
	s.mu.RUnlock()
	return t
}

// ownedTrunk is localTrunk for a cell operation the addressing table
// routed here. Recovery publishes a table before the new owner has
// loaded its trunks from TFS, so a trunk that is still being installed
// here is waited for, until it is in place or ctx is done. When this
// machine's own replica does not name it the owner, the caller's table
// or ours is stale; one refresh catches ours up, and applying a newer
// table starts the install. A trunk that is still neither here nor on
// its way returns nil: the caller disclaims it with ErrWrongOwner.
func (s *Slave) ownedTrunk(ctx context.Context, tid uint32) *trunk.Trunk {
	refreshed := false
	for {
		s.mu.RLock()
		if t := s.trunks[tid]; t != nil {
			s.mu.RUnlock()
			return t
		}
		installing, moved := s.installing[tid], s.moved
		s.mu.RUnlock()
		if !installing {
			if refreshed || s.member.Table().Machine(tid) == s.id {
				return nil
			}
			refreshed = true
			s.RefreshTable(ctx)
			continue
		}
		select {
		case <-moved:
		case <-ctx.Done():
			return nil
		}
	}
}

// trunksMovedLocked wakes the operations waiting in ownedTrunk after a
// change to trunks or installing. Called with mu held for writing.
func (s *Slave) trunksMovedLocked() {
	close(s.moved)
	s.moved = make(chan struct{})
}

// LocalKeys returns the keys of all cells stored on this machine.
// Computation engines use it to enumerate local vertices.
func (s *Slave) LocalKeys() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var keys []uint64
	for _, t := range s.trunks {
		keys = append(keys, t.Keys()...)
	}
	return keys
}

// TrunkGen counts the changes to the set of trunks this machine holds:
// recovery installing a trunk it took over, or dropping one that moved
// away. It only grows. Caches of the local partition key on it, so a
// cache built before a failover is not served after it.
func (s *Slave) TrunkGen() uint64 { return s.trunkGen.Load() }

// LocalTrunkIDs returns the trunk numbers currently hosted on this
// machine. Combined with ForEachInTrunk it lets engines walk the local
// partition trunk by trunk — the unit of parallelism for snapshot builds
// (the paper's trunk-level parallelism, §3).
func (s *Slave) LocalTrunkIDs() []uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint32, 0, len(s.trunks))
	for tid := range s.trunks {
		ids = append(ids, tid)
	}
	return ids
}

// ForEachInTrunk iterates the cells of one local trunk zero-copy (do not
// retain payloads). It reports false when the trunk is not — or no
// longer — hosted on this machine.
func (s *Slave) ForEachInTrunk(tid uint32, fn func(key uint64, payload []byte) bool) bool {
	t := s.localTrunk(tid)
	if t == nil {
		return false
	}
	t.ForEach(fn)
	return true
}

// ForEachLocal iterates over all local cells (zero-copy payloads; do not
// retain). Iteration order is unspecified.
func (s *Slave) ForEachLocal(fn func(key uint64, payload []byte) bool) {
	s.mu.RLock()
	trunks := make([]*trunk.Trunk, 0, len(s.trunks))
	for _, t := range s.trunks {
		trunks = append(trunks, t)
	}
	s.mu.RUnlock()
	for _, t := range trunks {
		stop := false
		t.ForEach(func(k uint64, p []byte) bool {
			if !fn(k, p) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// View runs fn over a read-only, zero-copy view of a LOCAL cell, under
// its trunk's shared mutex. It fails with ErrWrongOwner for cells on other
// machines: zero-copy access cannot cross machine boundaries (use Get
// instead).
func (s *Slave) View(key uint64, fn func(payload []byte) error) error {
	t, err := s.serveTrunk(key)
	if err != nil {
		return err
	}
	s.localOps.Add(1)
	return mapTrunkErr(t.View(key, fn))
}

// Update is View's writer: fn may write the LOCAL cell's payload in place
// (its size is fixed), under its trunk's exclusive mutex. fn must not call
// back into the slave for a cell of the same trunk, which would deadlock.
func (s *Slave) Update(key uint64, fn func(payload []byte) error) error {
	t, err := s.serveTrunk(key)
	if err != nil {
		return err
	}
	s.localOps.Add(1)
	return mapTrunkErr(t.Update(key, fn))
}

// ListAppend appends elem to a length-prefixed list inside a LOCAL cell,
// in place under its trunk's exclusive mutex (trunk.Trunk.ListAppend):
// locate returns the offset of the list's u32 count in the payload, and
// elem goes in after the list's last element. It fails with ErrWrongOwner
// for cells on other machines, and like Update it is local only.
//
// Under buffered logging the append is logged with the count offset it
// used, so replay needs no knowledge of the payload's layout. Replay
// applies records in log order, so callers must serialize appends to one
// cell across the apply and its log record (the graph layer's write
// stripes do); otherwise a record logged after one it raced with could
// replay at a stale offset.
func (s *Slave) ListAppend(key uint64, locate func(payload []byte) (int, error), elem []byte) error {
	t, err := s.serveTrunk(key)
	if err != nil {
		return err
	}
	s.localOps.Add(1)
	if s.cfg.BufferedLogging {
		return s.loggedListAppend(t, key, locate, elem)
	}
	_, err = t.ListAppend(key, locate, elem)
	return mapTrunkErr(err)
}

// onMultiGet answers N cell reads in one frame. Every key gets its own
// status byte, so a stale addressing-table entry for one key degrades to a
// per-key MultiGetWrongOwner instead of failing the whole batch — the
// fetch pipeline retries just that key after a table refresh.
func (s *Slave) onMultiGet(ctx context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
	keys, err := decodeMultiGetReq(req)
	if err != nil {
		return nil, err
	}
	s.multigetBatches.Add(1)
	s.multigetKeys.Add(int64(len(keys)))
	// Size pre-pass so the whole reply is built in one buffer: the per-key
	// copies then go straight from trunk memory into the reply via
	// ReadInto, with zero per-cell allocations. A cell that grows between
	// the pre-pass and its copy just makes the buffer relocate once.
	total := 0
	for _, key := range keys {
		total += 5 // status byte + u32 length
		if t := s.localTrunk(s.trunkFor(key)); t != nil {
			if n, err := t.Size(key); err == nil {
				total += n
			}
		}
	}
	out := make([]byte, 0, total) //alloc:ok one presized reply buffer per batch
	for _, key := range keys {
		t := s.ownedTrunk(ctx, s.trunkFor(key))
		if t == nil {
			out = append(out, MultiGetWrongOwner)
			continue
		}
		// Optimistically append the OK header, copy the payload in place,
		// then patch the length with what actually landed (the cell may
		// have been resized since the pre-pass).
		out = append(out, MultiGetOK, 0, 0, 0, 0)
		hdr := len(out) - 4
		grown, err := t.ReadInto(key, out)
		if err != nil {
			out = append(out[:hdr-1], MultiGetNotFound)
			continue
		}
		binary.LittleEndian.PutUint32(grown[hdr:], uint32(len(grown)-hdr-4))
		out = grown
	}
	return out, nil
}

// onMultiPut applies N cell writes from one frame. Every item gets its
// own status byte, so one stale-table key degrades to a per-key status
// instead of failing the whole batch — the store pipeline retries just
// the wrong-owner keys after a table refresh.
func (s *Slave) onMultiPut(ctx context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
	items, err := decodeMultiPutReq(req)
	if err != nil {
		return nil, err
	}
	return s.multiPut(ctx, items), nil
}

// LocalMultiPut applies a multi-put batch to this slave's trunks: the
// body of onMultiPut, and called directly it is the store pipeline's
// local fast path, which keeps the batching wins for writes that never
// leave the machine. Items whose trunk is not hosted here answer
// MultiPutWrongOwner in the status slice; a group whose trunk recovery
// is still installing here waits for it (ownedTrunk).
//
// It groups the batch by trunk and applies each group through
// Trunk.PutBatch — one trunk-mutex acquisition per group instead of one
// per cell — then, under buffered logging, commits the whole group as one
// coalesced WAL record with a single AppendFile under the trunk's wal
// lock (group commit). Items are applied in batch order within each
// trunk; two writes to one key always land in the same trunk, so the
// pipeline's last-write-wins order is preserved end to end.
func (s *Slave) LocalMultiPut(items []MultiPutItem) []byte {
	return s.multiPut(context.TODO(), items)
}

// multiPut is LocalMultiPut with the budget an install wait may spend.
func (s *Slave) multiPut(ctx context.Context, items []MultiPutItem) []byte {
	defer s.observeSince(s.setNs, time.Now())
	s.multiputBatches.Add(1)
	s.multiputKeys.Add(int64(len(items)))
	s.multiputBatchSize.Observe(int64(len(items)))
	statuses := make([]byte, len(items)) //alloc:ok one status slice per batch, amortized over items
	// Group item indices by trunk, preserving batch order within each
	// group. Bulk loads are partitioned per owner, so a typical batch
	// touches only this machine's handful of trunks.
	groups := make(map[uint32][]int)
	for i := range items {
		tid := s.trunkFor(items[i].Key)
		groups[tid] = append(groups[tid], i)
	}
	for tid, idxs := range groups {
		t := s.ownedTrunk(ctx, tid)
		if t == nil {
			for _, i := range idxs {
				statuses[i] = MultiPutWrongOwner
			}
			continue
		}
		s.localOps.Add(int64(len(idxs)))
		bitems := make([]trunk.BatchItem, len(idxs))
		for j, i := range idxs {
			bitems[j] = trunk.BatchItem{Key: items[i].Key, Val: items[i].Val}
		}
		var errs []error
		var walErr error
		if s.cfg.BufferedLogging {
			// Mutation + group log append are one critical section with
			// respect to backup's dump+truncate, exactly like loggedApply:
			// every write in the batch is covered by the dump the
			// truncation trusts, or by the log, or both.
			mu := &s.walMu[tid]
			mu.RLock()
			errs = t.PutBatch(bitems)
			if rec := encodeGroupRecord(bitems, errs); rec != nil {
				if walErr = s.appendWAL(tid, rec); walErr == nil {
					s.walGroupCommits.Add(1)
				}
			}
			mu.RUnlock()
		} else {
			errs = t.PutBatch(bitems)
		}
		for j, i := range idxs {
			switch {
			case errs != nil && errs[j] != nil, walErr != nil:
				// An applied write whose group record did not land is
				// visible in memory but not durable: not acknowledged.
				statuses[i] = MultiPutErr
			default:
				statuses[i] = MultiPutOK
			}
		}
	}
	return statuses
}

// observeSince records the elapsed time since start into h.
func (s *Slave) observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}
