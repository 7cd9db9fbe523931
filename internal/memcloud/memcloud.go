// Package memcloud implements Trinity's memory cloud (paper §3): a
// globally addressable, distributed in-memory key-value store built from
// 2^p memory trunks spread over a cluster of machines.
//
// Addressing follows the paper exactly: a 64-bit key is hashed to a p-bit
// trunk number i; the shared addressing table maps trunk i to a machine;
// the key is hashed again inside that machine's trunk hash table to find
// the cell. Every machine keeps a replica of the addressing table, and a
// machine that fails to reach a data owner reports the failure to the
// leader, waits for the table to be updated, and retries (§6.2).
//
// Fault-tolerant persistence comes from backing trunks up to the Trinity
// File System; optional buffered logging (RAMCloud-style, §6.2) makes
// individual writes durable between backups.
package memcloud

import (
	"context"
	"encoding/binary"
	"errors"
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

// Errors returned by memory cloud operations.
var (
	// ErrNotFound reports that no cell with the key exists.
	ErrNotFound = errors.New("memcloud: cell not found")
	// ErrExists reports that AddCell found the key already present.
	ErrExists = errors.New("memcloud: cell already exists")
	// ErrWrongOwner reports that a machine received a request for a trunk
	// it does not own (the caller's table was stale).
	ErrWrongOwner = errors.New("memcloud: not the owner of this trunk")
	// ErrRetriesExhausted reports that an operation kept failing across
	// table refreshes.
	ErrRetriesExhausted = errors.New("memcloud: retries exhausted")
)

// Protocol IDs used by the memory cloud (all below the cluster-reserved
// range).
const (
	protoGetCell msg.ProtocolID = 0x0101 + iota
	protoPutCell
	protoAddCell
	protoRemoveCell
	protoAppendCell
	protoContains
)

// ProtoMultiGet is the batched cell-read protocol (paper §4: batching
// messages per destination machine to hide network latency): one request
// carries N keys and one response answers all of them, each with its own
// per-key status, so a stale table entry for one key cannot fail the
// whole frame. The fetch pipeline (internal/memcloud/fetch) is its only
// intended client; the protocol is exported so that package can speak it
// without an import cycle.
const ProtoMultiGet msg.ProtocolID = 0x0110

// Per-key status codes in a ProtoMultiGet response.
const (
	// MultiGetOK precedes a u32 length and the cell payload.
	MultiGetOK byte = iota
	// MultiGetNotFound reports the cell does not exist on the owner.
	MultiGetNotFound
	// MultiGetWrongOwner reports the serving machine no longer (or never
	// did) host the key's trunk; the caller should refresh its addressing
	// table and retry elsewhere.
	MultiGetWrongOwner
)

// ProtoMultiPut is the batched cell-write protocol, the mirror image of
// ProtoMultiGet for the bulk-load direction: one request carries N write
// ops and one response answers all of them with per-key status codes, so
// a stale table entry or a duplicate insert for one key cannot fail the
// whole frame. On the serving side the batch is applied trunk by trunk
// through Trunk.PutBatch (one trunk-mutex acquisition per group) and
// logged as one coalesced WAL group record per trunk (one AppendFile
// instead of N). The store pipeline (internal/memcloud/store) is its
// intended client; the protocol is exported so that package can speak it
// without an import cycle.
const ProtoMultiPut msg.ProtocolID = 0x0111

// Op codes inside a ProtoMultiPut request.
const (
	// MultiPutOpPut upserts the cell (last write wins).
	MultiPutOpPut byte = iota
	// MultiPutOpAdd inserts the cell, answering MultiPutExists if present.
	MultiPutOpAdd
)

// Per-key status codes in a ProtoMultiPut response.
const (
	// MultiPutOK reports the write was applied (and logged, under
	// buffered logging) on the owner.
	MultiPutOK byte = iota
	// MultiPutExists answers an MultiPutOpAdd whose key already existed.
	MultiPutExists
	// MultiPutWrongOwner reports the serving machine does not host the
	// key's trunk; the caller should refresh its table and retry.
	MultiPutWrongOwner
	// MultiPutErr reports the write failed on the owner for a reason that
	// re-routing will not fix (trunk out of memory, reserved key).
	MultiPutErr
)

// MultiPutItem is one write op inside a multi-put batch. Val is aliased,
// not copied: it must stay immutable until the batch is applied.
type MultiPutItem struct {
	Op  byte
	Key uint64
	Val []byte
}

// Config configures a memory cloud.
type Config struct {
	// Machines is the number of slaves in the simulated cluster.
	Machines int
	// P is the trunk-count exponent: the cloud has 2^P trunks. It should
	// satisfy 2^P > Machines (several trunks per machine, the paper's
	// trunk-level parallelism). Zero picks a value giving each machine at
	// least 4 trunks.
	P uint
	// TrunkCapacity is the per-trunk buffer size. Zero means 4 MiB
	// (scaled down from the paper's 2 GB for laptop-scale simulated
	// clusters; raise it for large resident graphs).
	TrunkCapacity int64
	// TrunkPageSize is the trunk commit granularity. Zero means the
	// trunk default (64 KiB).
	TrunkPageSize int64
	// Reservation is the trunk expansion reservation policy.
	Reservation trunk.ReservationPolicy
	// BufferedLogging enables RAMCloud-style durable logging of every
	// mutation to TFS between backups.
	BufferedLogging bool
	// DefragInterval starts a background defragmentation daemon per slave
	// that sweeps its trunks on this period (§6.1's defragmentation
	// daemon). Zero disables the daemon; explicit Defragment calls and
	// the allocate-retry path still compact on demand.
	DefragInterval time.Duration
	// Msg configures the per-machine messaging runtime.
	Msg msg.Options
	// TransportWrap, if set, decorates every machine's transport endpoint
	// before the messaging runtime is built. Fault-injection tests pass
	// a chaos hub's Wrap here; nil means endpoints are used as-is.
	TransportWrap func(msg.Transport) msg.Transport
	// Cluster configures heartbeats and failure detection.
	Cluster cluster.Config
	// Datanodes is the TFS datanode count. Zero means 3.
	Datanodes int
	// Metrics is the observability registry for the whole cloud: every
	// slave's memcloud, msg, trunk and cluster metrics register here. Nil
	// creates a private registry per cloud so concurrently running clouds
	// (tests) never share counters; trinityd and trinity-bench pass
	// obs.Default() for a process-wide snapshot.
	Metrics *obs.Registry
}

func (c *Config) fill() {
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.P == 0 {
		c.P = 2
		for 1<<c.P < 4*c.Machines {
			c.P++
		}
	}
	if c.TrunkCapacity <= 0 {
		c.TrunkCapacity = 4 << 20
	}
	if c.Msg.CallTimeout == 0 {
		c.Msg.CallTimeout = 5 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	c.Msg.Metrics = c.Metrics
	c.Cluster.Metrics = c.Metrics
}

// Stats aggregates cloud activity.
type Stats struct {
	LocalOps   int64 // operations served from a local trunk
	RemoteOps  int64 // operations forwarded to a remote machine
	Retries    int64 // retries after table refreshes
	Recoveries int64 // trunks reloaded from TFS
}

// Cloud is a whole simulated Trinity cluster: the shared TFS, the
// in-process network, and all slaves. Production deployments run one
// Slave per physical machine; the Cloud type exists so tests, benchmarks
// and examples can stand up a cluster in one call.
type Cloud struct {
	cfg Config
	fs  *tfs.FS
	bus *msg.Bus

	// mu guards slaves: AddMachine appends to it while Stats, Backup,
	// MemoryUsage and Close iterate it, possibly from other goroutines.
	mu     sync.RWMutex
	slaves []*Slave
}

// endpoint returns the (possibly chaos-wrapped) transport endpoint for a
// machine.
func (c *Cloud) endpoint(id msg.MachineID) msg.Transport {
	tr := c.bus.Endpoint(id)
	if c.cfg.TransportWrap != nil {
		tr = c.cfg.TransportWrap(tr)
	}
	return tr
}

// slaveList snapshots the slave slice under the lock.
func (c *Cloud) slaveList() []*Slave {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Slave(nil), c.slaves...)
}

// New boots a memory cloud with cfg.Machines slaves on an in-process bus.
func New(cfg Config) *Cloud {
	cfg.fill()
	c := &Cloud{
		cfg: cfg,
		fs:  tfs.New(tfs.Options{Datanodes: cfg.Datanodes}),
		bus: msg.NewBus(),
	}
	machines := make([]msg.MachineID, cfg.Machines)
	for i := range machines {
		machines[i] = msg.MachineID(i)
	}
	initial := cluster.NewTable(cfg.P, machines)
	for i := 0; i < cfg.Machines; i++ {
		node := msg.NewNode(c.endpoint(machines[i]), cfg.Msg)
		c.slaves = append(c.slaves, newSlave(node, c.fs, initial, cfg))
	}
	for _, s := range c.slaves {
		s.member.Start()
	}
	return c
}

// Slave returns the i-th slave; any slave can serve as a client access
// point.
func (c *Cloud) Slave(i int) *Slave {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.slaves[i]
}

// Slaves returns the number of slaves.
func (c *Cloud) Slaves() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.slaves)
}

// FS returns the cloud's Trinity File System.
func (c *Cloud) FS() *tfs.FS { return c.fs }

// Metrics returns the cloud's observability registry.
func (c *Cloud) Metrics() *obs.Registry { return c.cfg.Metrics }

// Backup dumps every live trunk to TFS. Returns the first error.
func (c *Cloud) Backup() error {
	for _, s := range c.slaveList() {
		if s.alive.Load() {
			if err := s.BackupTrunks(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddMachine joins a new machine to the running cloud: a fresh slave is
// wired to the network, existing trunks are backed up, and the leader
// relocates a share of trunks to the newcomer ("when new machines join
// the memory cloud, we relocate some memory trunks to those new machines
// and update the addressing table accordingly", §3). The call returns
// when the newcomer has taken ownership of its trunks.
func (c *Cloud) AddMachine() (*Slave, error) {
	// The id assignment and the append are one critical section: a
	// concurrent Stats/Backup/Close walking the slice must see either the
	// old cluster or the new one, and two concurrent joins must not pick
	// the same id.
	c.mu.Lock()
	id := msg.MachineID(len(c.slaves))
	node := msg.NewNode(c.endpoint(id), c.cfg.Msg)
	// The joiner bootstraps from the current table (in which it owns
	// nothing yet).
	current := c.slaves[0].member.Table()
	s := newSlave(node, c.fs, current, c.cfg)
	c.slaves = append(c.slaves, s)
	incumbents := append([]*Slave(nil), c.slaves[:len(c.slaves)-1]...)
	c.mu.Unlock()
	s.member.Start()

	// Persist all trunks so relocated ones can be reloaded by the joiner.
	if err := c.Backup(); err != nil {
		return nil, err
	}
	var leader *Slave
	for _, sl := range incumbents {
		if sl.alive.Load() && sl.member.IsLeader() {
			leader = sl
			break
		}
	}
	if leader == nil {
		return nil, errors.New("memcloud: no leader to admit the new machine")
	}
	if err := leader.member.AnnounceJoin(id); err != nil {
		return nil, err
	}
	// Wait for the joiner's replica to include its trunks and for the
	// recovery hook to install them.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		trunks := s.member.Table().TrunksOf(id)
		s.mu.RLock()
		installed := len(s.trunks)
		s.mu.RUnlock()
		if len(trunks) > 0 && installed >= len(trunks) {
			return s, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, errors.New("memcloud: join did not complete")
}

// KillMachine simulates the crash of machine id: its slave stops serving,
// its endpoint drops off the network. Recovery is driven by the usual
// failure-report path the next time someone touches its data.
func (c *Cloud) KillMachine(id msg.MachineID) {
	c.mu.RLock()
	s := c.slaves[int(id)]
	c.mu.RUnlock()
	if s.stop() {
		c.bus.Disconnect(id)
	}
}

// Close shuts down the whole cloud.
func (c *Cloud) Close() {
	for _, s := range c.slaveList() {
		s.stop()
	}
}

// Stats sums activity over all slaves.
func (c *Cloud) Stats() Stats {
	var total Stats
	for _, s := range c.slaveList() {
		total.LocalOps += s.localOps.Load()
		total.RemoteOps += s.remoteOps.Load()
		total.Retries += s.retries.Load()
		total.Recoveries += s.recoveries.Load()
	}
	return total
}

// MemoryUsage returns the total committed trunk bytes across the cloud —
// the number reported in the paper's Figure 13 memory comparison.
func (c *Cloud) MemoryUsage() int64 {
	var total int64
	for _, s := range c.slaveList() {
		if !s.alive.Load() {
			continue
		}
		s.mu.RLock()
		for _, t := range s.trunks {
			total += t.Stats().CommittedBytes
		}
		s.mu.RUnlock()
	}
	return total
}

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
	defrag *trunk.Daemon

	mu     sync.RWMutex
	trunks map[uint32]*trunk.Trunk

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
	multiOpNs  *obs.Histogram

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
		id:      node.ID(),
		node:    node,
		fs:      fs,
		cfg:     cfg,
		trunks:  make(map[uint32]*trunk.Trunk),
		walMu:   make([]sync.RWMutex, 1<<cfg.P),
		metrics: cfg.Metrics,
		trunkMx: cfg.Metrics.Scope(fmt.Sprintf("trunk.m%d", node.ID())),

		localOps:   scope.Counter("local_ops"),
		remoteOps:  scope.Counter("remote_ops"),
		retries:    scope.Counter("retries"),
		recoveries: scope.Counter("recoveries"),
		getNs:      scope.Histogram("get_ns"),
		setNs:      scope.Histogram("set_ns"),
		multiOpNs:  scope.Histogram("multiop_ns"),

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
	if cfg.DefragInterval > 0 {
		s.defrag = trunk.NewDaemon(cfg.DefragInterval)
		s.mu.RLock()
		for _, t := range s.trunks {
			s.defrag.Watch(t)
		}
		s.mu.RUnlock()
		s.defrag.Start()
	}
	return s
}

func (s *Slave) newTrunk() *trunk.Trunk {
	return trunk.New(trunk.Options{
		Capacity:    s.cfg.TrunkCapacity,
		PageSize:    s.cfg.TrunkPageSize,
		Reservation: s.cfg.Reservation,
		Metrics:     s.trunkMx,
	})
}

// stop takes the slave out of service: background daemon, membership and
// messaging runtime, in that order. It reports whether this call was the
// one that stopped it.
func (s *Slave) stop() bool {
	if !s.alive.Swap(false) {
		return false
	}
	if s.defrag != nil {
		s.defrag.Stop()
	}
	s.member.Stop()
	s.node.Close()
	return true
}

// registerTrunkGauges publishes snapshot-time gauges over this slave's
// trunk set: hash-table load (cells), committed bytes, and the load
// factor (live/committed) that drives defragmentation decisions. Func
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

// ID returns the slave's machine ID.
func (s *Slave) ID() msg.MachineID { return s.id }

// Node exposes the slave's messaging runtime so higher layers (the graph
// engine, BSP, traversal) can register their own TSL protocols.
func (s *Slave) Node() *msg.Node { return s.node }

// Member exposes the slave's cluster membership.
func (s *Slave) Member() *cluster.Member { return s.member }

// FS exposes the shared Trinity File System (for checkpoints, snapshots,
// and other higher-layer persistence).
func (s *Slave) FS() *tfs.FS { return s.fs }

// Metrics exposes the cloud's observability registry so higher layers
// (BSP, async, traversal) register their own scopes alongside the storage
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

// --- server-side handlers ---

func (s *Slave) serveTrunk(key uint64) (*trunk.Trunk, error) {
	tid := s.trunkFor(key)
	t := s.localTrunk(tid)
	if t == nil {
		return nil, msg.WithCode(codeWrongOwner,
			fmt.Errorf("%w: trunk %d on machine %d", ErrWrongOwner, tid, s.id))
	}
	return t, nil
}

// serve is the owner side of every single-cell protocol: decode, find
// the trunk (or disclaim it with ErrWrongOwner), apply and log the op.
func (s *Slave) serve(op *cellOp) msg.SyncHandler {
	return func(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
		key, val, err := decodeKV(req)
		if err != nil {
			return nil, err
		}
		t, err := s.serveTrunk(key)
		if err != nil {
			return nil, err
		}
		out, err := s.loggedApply(op, t, key, val)
		return out, mapTrunkErr(err)
	}
}

// onMultiGet answers N cell reads in one frame. Every key gets its own
// status byte, so a stale addressing-table entry for one key degrades to a
// per-key MultiGetWrongOwner instead of failing the whole batch — the
// fetch pipeline retries just that key after a table refresh.
func (s *Slave) onMultiGet(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
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
		t, err := s.serveTrunk(key)
		if err != nil {
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
// own status byte, so one stale-table key or duplicate insert degrades to
// a per-key status instead of failing the whole batch — the store
// pipeline retries just the wrong-owner keys after a table refresh.
func (s *Slave) onMultiPut(_ context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
	items, err := decodeMultiPutReq(req)
	if err != nil {
		return nil, err
	}
	return s.applyMultiPut(items), nil
}

// LocalMultiPut applies a multi-put batch directly to this slave's
// trunks, without touching the network: the store pipeline's local fast
// path, which keeps the batching wins (amortized trunk locking, one WAL
// group record per trunk) for writes that never leave the machine. ok is
// always true for a slave; items whose trunk is not hosted here answer
// MultiPutWrongOwner in the status slice.
func (s *Slave) LocalMultiPut(items []MultiPutItem) (statuses []byte, ok bool) {
	return s.applyMultiPut(items), true
}

// applyMultiPut groups the batch by trunk and applies each group through
// Trunk.PutBatch — one trunk-mutex acquisition per group instead of one
// per cell — then, under buffered logging, commits the whole group as one
// coalesced WAL record with a single AppendFile under the trunk's wal
// lock (group commit). Items are applied in batch order within each
// trunk; two writes to one key always land in the same trunk, so the
// pipeline's last-write-wins order is preserved end to end.
func (s *Slave) applyMultiPut(items []MultiPutItem) []byte {
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
		t := s.localTrunk(tid)
		if t == nil {
			for _, i := range idxs {
				statuses[i] = MultiPutWrongOwner
			}
			continue
		}
		s.localOps.Add(int64(len(idxs)))
		bitems := make([]trunk.BatchItem, len(idxs))
		for j, i := range idxs {
			bitems[j] = trunk.BatchItem{
				Key: items[i].Key,
				Val: items[i].Val,
				Add: items[i].Op == MultiPutOpAdd,
			}
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
			case errs != nil && errors.Is(errs[j], trunk.ErrExists):
				statuses[i] = MultiPutExists
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

// --- client-side operations ---

// MaxRetries bounds how many times one operation may be re-routed through
// a refreshed addressing table before it fails. Recovery publishes the new
// table before the new owner has necessarily acquired its trunks, so the
// first re-route can draw another wrong-owner disclaimer.
const MaxRetries = 3

// Rerouter is the slice of an endpoint the §6.2 failure step needs. Both
// *Slave and *Proxy satisfy it.
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
// MaxRetries times per operation.
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

// observeSince records the elapsed time since start into h.
func (s *Slave) observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(int64(time.Since(start)))
}

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
			if t := s.localTrunk(tid); t != nil {
				s.localOps.Add(1)
				out, err := s.loggedApply(op, t, key, val)
				return out, mapTrunkErr(err)
			}
			// The table says we own it but recovery hasn't delivered the
			// trunk yet.
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

// View runs fn over a zero-copy, spin-locked view of a LOCAL cell. It
// fails with ErrWrongOwner for cells on other machines: zero-copy access
// cannot cross machine boundaries (use Get instead).
func (s *Slave) View(key uint64, fn func(payload []byte) error) error {
	t, err := s.serveTrunk(key)
	if err != nil {
		return err
	}
	s.localOps.Add(1)
	return mapTrunkErr(t.View(key, fn))
}

// Lock pins a LOCAL cell and returns its guard.
func (s *Slave) Lock(key uint64) (*trunk.Guard, error) {
	t, err := s.serveTrunk(key)
	if err != nil {
		return nil, err
	}
	g, err := t.Lock(key)
	return g, mapTrunkErr(err)
}
