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
	"errors"
	"time"

	"trinity/internal/cluster"
	"trinity/internal/msg"
	"trinity/internal/obs"
	"trinity/internal/tfs"
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
// ProtoMultiGet for the bulk-load direction: one request carries N upserts
// and one response answers all of them with per-key status codes, so a
// stale table entry for one key cannot fail the whole frame. On the
// serving side the batch is applied trunk by trunk through
// Trunk.PutBatch (one trunk-mutex acquisition per group) and logged as
// one coalesced WAL group record per trunk (one AppendFile instead of
// N). The store pipeline (internal/memcloud/store) is its intended
// client; the protocol is exported so that package can speak it without
// an import cycle.
const ProtoMultiPut msg.ProtocolID = 0x0111

// Per-key status codes in a ProtoMultiPut response.
const (
	// MultiPutOK reports the write was applied (and logged, under
	// buffered logging) on the owner.
	MultiPutOK byte = iota
	// MultiPutWrongOwner reports the serving machine does not host the
	// key's trunk; the caller should refresh its table and retry.
	MultiPutWrongOwner
	// MultiPutErr reports the write failed on the owner for a reason that
	// re-routing will not fix (trunk out of memory, reserved key).
	MultiPutErr
)

// MultiPutItem is one upsert inside a multi-put batch. Val is aliased,
// not copied: it must stay immutable until the batch is applied.
type MultiPutItem struct {
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
	// trunk default (64 KiB). It is also the least gap that makes a trunk
	// compact itself: there is no defragmentation daemon to configure,
	// each trunk runs a pass once its gaps reach its live bytes and one
	// page (§6.1).
	TrunkPageSize int64
	// BufferedLogging enables RAMCloud-style durable logging of every
	// mutation to TFS between backups.
	BufferedLogging bool
	// Msg configures the per-machine messaging runtime.
	Msg msg.Options
	// TransportWrap, if set, decorates every machine's transport endpoint
	// before the messaging runtime is built. Fault-injection tests pass
	// a chaos hub's Wrap here; nil means endpoints are used as-is.
	TransportWrap func(msg.Transport) msg.Transport
	// Cluster configures heartbeats and failure detection.
	Cluster cluster.Config
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

	slaves []*Slave // fixed at New: machines fail and recover, none join
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

// New boots a memory cloud with cfg.Machines slaves on an in-process bus.
func New(cfg Config) *Cloud {
	cfg.fill()
	c := &Cloud{
		cfg: cfg,
		fs:  tfs.New(tfs.Options{}),
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
func (c *Cloud) Slave(i int) *Slave { return c.slaves[i] }

// Slaves returns the number of slaves.
func (c *Cloud) Slaves() int { return len(c.slaves) }

// FS returns the cloud's Trinity File System.
func (c *Cloud) FS() *tfs.FS { return c.fs }

// Metrics returns the cloud's observability registry.
func (c *Cloud) Metrics() *obs.Registry { return c.cfg.Metrics }

// Backup dumps every live trunk to TFS. Returns the first error.
func (c *Cloud) Backup() error {
	for _, s := range c.slaves {
		if s.alive.Load() {
			if err := s.BackupTrunks(); err != nil {
				return err
			}
		}
	}
	return nil
}

// KillMachine simulates the crash of machine id: its slave stops serving,
// its endpoint drops off the network. Recovery is driven by the usual
// failure-report path the next time someone touches its data.
func (c *Cloud) KillMachine(id msg.MachineID) {
	if c.slaves[id].stop() {
		c.bus.Disconnect(id)
	}
}

// Close shuts down the whole cloud.
func (c *Cloud) Close() {
	for _, s := range c.slaves {
		s.stop()
	}
}

// Stats sums activity over all slaves.
func (c *Cloud) Stats() Stats {
	var total Stats
	for _, s := range c.slaves {
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
	for _, s := range c.slaves {
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
