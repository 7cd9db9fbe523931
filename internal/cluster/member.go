package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"trinity/internal/msg"
	"trinity/internal/obs"
	"trinity/internal/tfs"
)

// Protocol IDs reserved for the cluster layer. User protocols must stay
// below ProtoReservedBase.
const (
	ProtoReservedBase msg.ProtocolID = 0xFF00

	protoHeartbeat   = ProtoReservedBase + 1 // async: slave -> leader
	protoTableUpdate = ProtoReservedBase + 2 // async: leader -> all
	protoReportFail  = ProtoReservedBase + 3 // sync: any -> leader
	protoGetTable    = ProtoReservedBase + 4 // sync: any -> leader
	protoPing        = ProtoReservedBase + 5 // sync: leader -> suspect
)

// TFS paths used by the cluster layer.
const (
	leaderFlagFile = "cluster/leader"
	tableFile      = "cluster/addressing-table"
)

// leaderTombstone is the flag value a stepping-down leader leaves behind:
// a valid 4-byte encoding that names no machine, so any member may claim
// it with a CAS without having to prove the previous holder dead.
const leaderTombstone msg.MachineID = -1

// casCommitAttempts bounds the commit retry loop. Each retry means another
// writer won the predecessor race; with reconfiguration serialized behind
// the leader flag plus recMu this is contention between at most two
// leaders (one deposed), so a handful of rounds is already pathological.
const casCommitAttempts = 8

// Config configures a cluster member.
type Config struct {
	// HeartbeatInterval is how often slaves heartbeat the leader.
	// Zero means 50ms (scaled down from production seconds).
	HeartbeatInterval time.Duration
	// FailureTimeout is how long the leader waits without a heartbeat
	// before suspecting a machine. It also bounds each confirm ping and
	// the wait for a successor leader. Zero means 4x the heartbeat
	// interval.
	FailureTimeout time.Duration
	// Metrics is the registry the member publishes election, failover and
	// heartbeat metrics to, under "cluster.m<id>". Nil gives the member a
	// private registry.
	Metrics *obs.Registry
}

func (c *Config) fill() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.FailureTimeout <= 0 {
		c.FailureTimeout = 4 * c.HeartbeatInterval
	}
}

// RecoveryHooks are callbacks the memory cloud installs so the cluster
// layer can drive data recovery without depending on the storage layer.
type RecoveryHooks struct {
	// AcquireTrunks is invoked on a machine when the addressing table
	// assigns it trunks it did not own before; the implementation reloads
	// the trunk contents from TFS.
	AcquireTrunks func(trunks []uint32)
	// ReleaseTrunks is invoked when trunks move away from this machine
	// (it was falsely suspected while alive and recovery reassigned them).
	ReleaseTrunks func(trunks []uint32)
}

// Member is one machine's view of the cluster. The same type serves as
// slave and (on at most one machine at a time) as leader.
type Member struct {
	id   msg.MachineID
	node *msg.Node
	fs   *tfs.FS
	cfg  Config

	table atomic.Pointer[Table]
	hooks RecoveryHooks

	// recMu serializes all reconfiguration on this member: failure
	// recovery and leader assumption. Two concurrent confirmAndRecover
	// calls (two machines dying in one detector window, or a slave report
	// racing the leader's own detector) must not both reassign from the
	// same table version.
	recMu sync.Mutex

	mu        sync.Mutex
	leaderID  msg.MachineID
	isLeader  bool
	lastSeen  map[msg.MachineID]time.Time // leader-side heartbeat registry
	suspected map[msg.MachineID]bool
	// leaderSeen is the slave-side liveness deadline for the leader: the
	// last time anything proved it alive (a ping reply or a table
	// broadcast). Heartbeats are one-way sends, and a silent partition
	// drops frames without erroring — so a slave cannot rely on Send
	// failures alone to notice a dead or isolated leader.
	leaderSeen time.Time
	// electionBackoff pauses further leadership bids after a won flag had
	// to be handed back (no other member reachable): without it, an
	// isolated machine that can still reach TFS claims and releases the
	// flag in a tight loop, starving connected members of the tombstone.
	electionBackoff time.Time
	// confirmedDead records machines this leader confirmed unreachable in
	// its current tenure. A commit that loses its CAS re-diffs the winning
	// table against this whole set, so a recovery can never resurrect a
	// machine another in-flight recovery just removed. Cleared on
	// election (a new tenure starts with fresh knowledge).
	confirmedDead map[msg.MachineID]bool
	stopCh        chan struct{}
	stopped       bool
	wg            sync.WaitGroup

	// commitHook, when set, runs after a table commit is persisted to TFS
	// but before it is applied locally or broadcast. Crash-consistency
	// test instrumentation only.
	commitHook atomic.Pointer[func(*Table)]

	recoveries      *obs.Counter
	tableSyncs      *obs.Counter
	elections       *obs.Counter
	failReports     *obs.Counter
	tableCASRetries *obs.Counter
	commitErrors    *obs.Counter
	stepdowns       *obs.Counter
	concurrentRecov *obs.Counter
	heartbeatNs     *obs.Histogram
	pingRttNs       *obs.Histogram
	failoverNs      *obs.Histogram
}

// NewMember wires a cluster member onto a messaging node and a shared TFS.
// initial is the bootstrap table (identical on all machines); the member
// with the lowest ID in the table wins the initial leader election.
func NewMember(node *msg.Node, fs *tfs.FS, initial *Table, hooks RecoveryHooks, cfg Config) *Member {
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	scope := reg.Scope(fmt.Sprintf("cluster.m%d", node.ID()))
	m := &Member{
		id:            node.ID(),
		node:          node,
		fs:            fs,
		cfg:           cfg,
		hooks:         hooks,
		lastSeen:      make(map[msg.MachineID]time.Time),
		suspected:     make(map[msg.MachineID]bool),
		confirmedDead: make(map[msg.MachineID]bool),
		leaderSeen:    time.Now(),
		stopCh:        make(chan struct{}),

		recoveries:      scope.Counter("recoveries"),
		tableSyncs:      scope.Counter("table_syncs"),
		elections:       scope.Counter("elections"),
		failReports:     scope.Counter("failure_reports"),
		tableCASRetries: scope.Counter("table_cas_retries"),
		commitErrors:    scope.Counter("commit_errors"),
		stepdowns:       scope.Counter("stepdowns"),
		concurrentRecov: scope.Counter("concurrent_recoveries"),
		heartbeatNs:     scope.Histogram("heartbeat_ns"),
		pingRttNs:       scope.Histogram("ping_rtt_ns"),
		failoverNs:      scope.Histogram("failover_ns"),
	}
	m.table.Store(initial)
	node.HandleAsync(protoHeartbeat, m.onHeartbeat)
	node.HandleAsync(protoTableUpdate, m.onTableUpdate)
	node.HandleSync(protoReportFail, m.onReportFailure)
	node.HandleSync(protoGetTable, m.onGetTable)
	node.HandleSync(protoPing, func(context.Context, msg.MachineID, []byte) ([]byte, error) { return []byte{1}, nil })
	return m
}

// Start begins heartbeating and, if this member can claim the leader flag,
// leader duties. Call Stop to shut down.
func (m *Member) Start() {
	m.tryBecomeLeader(nil)
	m.wg.Add(1)
	go m.heartbeatLoop()
}

// Stop halts background loops.
func (m *Member) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	close(m.stopCh)
	m.mu.Unlock()
	m.wg.Wait()
}

// Table returns the member's current replica of the addressing table.
func (m *Member) Table() *Table { return m.table.Load() }

// IsLeader reports whether this member currently holds leader duties.
func (m *Member) IsLeader() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.isLeader
}

// Leader returns the member's current belief about the leader's identity.
// It is leaderTombstone (-1) while the member knows of no leader (the old
// one stepped down and no successor has claimed the flag yet).
func (m *Member) Leader() msg.MachineID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.leaderID
}

// SetCommitHook installs fn to run after a table commit has been persisted
// to TFS but before it is applied locally or broadcast — the §6.2
// "mid-commit" window. Crash-consistency tests use it to kill or isolate a
// leader between the persistent-replica write and the broadcast. A nil fn
// removes the hook. Not for production use.
//
//reach:test-seam memcloud's ChaosFailover tests isolate the leader between the table persist and the broadcast
func (m *Member) SetCommitHook(fn func(*Table)) {
	if fn == nil {
		m.commitHook.Store(nil)
		return
	}
	m.commitHook.Store(&fn)
}

// encodeID encodes a machine ID for the leader flag file.
func encodeID(id msg.MachineID) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(int32(id)))
	return b[:]
}

// decodeID parses a 4-byte leader flag value.
func decodeID(b []byte) msg.MachineID {
	return msg.MachineID(int32(binary.LittleEndian.Uint32(b)))
}

// probeReachable reports whether at least one other machine in the
// current table answers a bounded ping. A cluster of one is trivially
// reachable. Pings run concurrently and the first success wins, so the
// common case costs one round trip, not FailureTimeout.
func (m *Member) probeReachable() bool {
	var others []msg.MachineID
	for _, id := range m.Table().Machines() {
		if id != m.id {
			others = append(others, id)
		}
	}
	if len(others) == 0 {
		return true
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.FailureTimeout)
	defer cancel()
	results := make(chan bool, len(others))
	for _, id := range others {
		id := id
		go func() {
			_, err := m.ping(ctx, id)
			results <- err == nil
		}()
	}
	for range others {
		if <-results {
			return true
		}
	}
	return false
}

// tryBecomeLeader attempts to claim the TFS leader flag. old is the flag
// value we believe is current (nil at bootstrap). Winning the flag is not
// enough to lead: the §6.2 invariant — "an update to the primary table
// must be applied to the persistent replica before committing" — requires
// the persistent replica to be reconciled first, so a winner that cannot
// persist steps down again instead of silently leading with a stale
// primary replica. On CAS failure the member records the actual leader
// from the flag, claiming vacant or tombstoned flags as it goes.
func (m *Member) tryBecomeLeader(old []byte) {
	// Fence before bidding: TFS reachability alone is not proof we can
	// lead — a network-isolated machine can still reach the in-process
	// store, and letting it claim the flag would repeatedly depose the
	// connected leader (checkDeposed) without ever serving anyone. Prove
	// at least one other cluster member answers before touching the flag,
	// and back off on failure so the probe does not run every tick.
	if !m.probeReachable() {
		m.mu.Lock()
		m.electionBackoff = time.Now().Add(2 * m.cfg.FailureTimeout)
		m.mu.Unlock()
		return
	}
	for {
		err := m.fs.CompareAndSwap(leaderFlagFile, old, encodeID(m.id))
		if err == nil {
			break // flag claimed; assume duties below
		}
		var cas *tfs.CASError
		if !errors.As(err, &cas) {
			return // TFS trouble: remain a follower
		}
		if cas.Current == nil && old != nil {
			old = nil // flag vacant: claim it unconditionally
			continue
		}
		if len(cas.Current) != 4 {
			return // unreadable flag: remain a follower
		}
		holder := decodeID(cas.Current)
		switch {
		case holder == m.id:
			// The flag already names us (an earlier step-down failed to
			// tombstone it). Re-run the assumption protocol below.
		case holder == leaderTombstone && !bytes.Equal(old, cas.Current):
			// The previous leader stepped down cleanly; claim the
			// tombstone.
			old = cas.Current
			continue
		default:
			m.mu.Lock()
			m.leaderID = holder
			m.leaderSeen = time.Now()
			m.isLeader = false
			m.mu.Unlock()
			return
		}
		break
	}

	// We hold the flag. Serialize with any in-flight reconfiguration,
	// reconcile the persistent primary replica, then assume duties.
	m.recMu.Lock()
	defer m.recMu.Unlock()
	if err := m.adoptPersistedTable(); err != nil {
		m.commitErrors.Inc()
		m.stepDown()
		return
	}
	m.mu.Lock()
	m.isLeader = true
	m.leaderID = m.id
	// Re-seed the failure detector from scratch: lastSeen entries carried
	// over from a previous tenure would expire every machine instantly,
	// and a stale confirmedDead set would evict machines re-admitted
	// while we were a follower.
	now := time.Now()
	m.lastSeen = make(map[msg.MachineID]time.Time)
	m.suspected = make(map[msg.MachineID]bool)
	m.confirmedDead = make(map[msg.MachineID]bool)
	for _, id := range m.Table().Machines() {
		if id != m.id {
			m.lastSeen[id] = now
		}
	}
	m.mu.Unlock()
	m.elections.Inc()
}

// adoptPersistedTable reconciles the in-memory replica with the persistent
// primary on TFS during leader assumption: a newer persisted table (e.g.
// one committed by the previous leader just before dying) is adopted
// locally — firing recovery hooks for any trunks it assigns us — while an
// older or missing one is overwritten with our replica via CAS so a
// concurrent writer is never clobbered. Called with recMu held.
func (m *Member) adoptPersistedTable() error {
	for attempt := 0; attempt < casCommitAttempts; attempt++ {
		cur, err := m.fs.ReadFile(tableFile)
		if err != nil && !errors.Is(err, tfs.ErrNotExist) {
			return err
		}
		if err == nil {
			if pt, derr := DecodeTable(cur); derr == nil && pt.Version >= m.Table().Version {
				m.applyTable(pt)
				return nil
			}
			// Older or corrupt primary: replace it with our replica.
		} else {
			cur = nil // file absent: create it
		}
		cerr := m.fs.CompareAndSwap(tableFile, cur, m.Table().Encode())
		if cerr == nil {
			return nil
		}
		if !errors.Is(cerr, tfs.ErrCASMismatch) {
			return cerr
		}
		// Lost a write race; re-read and reconcile again.
	}
	return errors.New("cluster: could not reconcile persistent table replica")
}

// stepDown abandons leader duties after a persistence failure: local state
// stops claiming leadership first, then the flag is tombstoned (CAS from
// our id) so the next election can proceed without anyone having to prove
// us dead. If even the tombstone write fails the flag still names us, but
// isLeader is already false — we refuse leader duties, and a later
// election attempt (ours via the heartbeat loop, or a peer's deposition
// CAS) resolves the flag.
func (m *Member) stepDown() {
	m.stepdowns.Inc()
	m.mu.Lock()
	m.isLeader = false
	m.leaderID = leaderTombstone
	m.mu.Unlock()
	_ = m.fs.CompareAndSwap(leaderFlagFile, encodeID(m.id), encodeID(leaderTombstone))
}

func (m *Member) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-ticker.C:
			m.mu.Lock()
			leader := m.leaderID
			isLeader := m.isLeader
			sinceSeen := time.Since(m.leaderSeen)
			backingOff := time.Now().Before(m.electionBackoff)
			m.mu.Unlock()
			leaderStale := sinceSeen > m.cfg.FailureTimeout
			// Usurping on one failed ping would replace a leader that is
			// merely slow under load; demand sustained silence first.
			leaderExpired := sinceSeen > 3*m.cfg.FailureTimeout
			if isLeader {
				// Lease check: a leader that lost the flag (a successor
				// claimed it while we were partitioned) must find out even
				// when it has no commit in flight — commitTable's own
				// checkDeposed only runs when the detector fires. This
				// bounds the dual-leader window to about one tick.
				if m.checkDeposed() {
					continue
				}
				m.checkHeartbeats()
				continue
			}
			if leader == leaderTombstone || leader == m.id {
				// No leader (step-down tombstone, or a flag that names us
				// without duties assumed): run for the vacancy.
				if !backingOff {
					m.tryBecomeLeader(encodeID(leaderTombstone))
				}
				continue
			}
			start := time.Now()
			err := m.node.Send(leader, protoHeartbeat, nil)
			if err == nil {
				// The packer may swallow a dead destination until the
				// flush actually hits the transport.
				err = m.node.Flush()
			}
			m.heartbeatNs.Observe(int64(time.Since(start)))
			if err != nil || leaderStale {
				// Confirm with a bounded ping before racing to replace
				// the leader. The staleness check matters as much as the
				// Send error: a silently partitioned leader drops our
				// one-way heartbeats without erroring, so the only proof
				// of life is a round trip. context.Background() here
				// would let a one-way cut stall this loop for a full
				// CallTimeout.
				ctx, cancel := context.WithTimeout(context.Background(), m.cfg.FailureTimeout)
				_, perr := m.ping(ctx, leader)
				cancel()
				switch {
				case perr == nil:
					m.mu.Lock()
					m.leaderSeen = time.Now()
					m.mu.Unlock()
				case (err != nil || leaderExpired) && !backingOff:
					// A hard send error (closed endpoint) or sustained
					// silence: replace the leader. A single timed-out
					// ping on an otherwise quiet link is not enough.
					m.tryBecomeLeader(encodeID(leader))
				}
			}
		}
	}
}

// onHeartbeat records a slave's heartbeat (leader side).
func (m *Member) onHeartbeat(from msg.MachineID, _ []byte) {
	m.mu.Lock()
	m.lastSeen[from] = time.Now()
	delete(m.suspected, from)
	m.mu.Unlock()
}

// checkHeartbeats is the leader's proactive failure detector. Suspects
// are confirmed concurrently, each ping bounded by FailureTimeout, so one
// unresponsive peer (e.g. behind a one-way cut that swallows our ping but
// not its heartbeats) cannot stall the ticker for a full CallTimeout and
// cascade false positives onto machines that are merely late.
func (m *Member) checkHeartbeats() {
	now := time.Now()
	var expired []msg.MachineID
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	for id, seen := range m.lastSeen {
		if now.Sub(seen) > m.cfg.FailureTimeout && !m.suspected[id] {
			m.suspected[id] = true
			expired = append(expired, id)
		}
	}
	// Re-drive recoveries whose commit did not land: a confirmed-dead
	// machine still owning trunks means the reassignment failed (CAS
	// exhaustion, a transient no-survivors window, a TFS error) and
	// nothing else will retry it — the machine is gone from lastSeen, so
	// it can never expire again. suspected doubles as the in-flight
	// marker so each tick spawns at most one recovery per machine.
	cur := m.Table()
	for id := range m.confirmedDead {
		if !m.suspected[id] && len(cur.TrunksOf(id)) > 0 {
			m.suspected[id] = true
			expired = append(expired, id)
		}
	}
	m.mu.Unlock()
	for _, id := range expired {
		id := id
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), m.cfg.FailureTimeout)
			defer cancel()
			m.confirmAndRecover(ctx, id)
		}()
	}
}

// onReportFailure handles a slave's report that machine B is down
// (§6.2: "machine A will inform the leader machine of the failure of
// machine B"). The leader confirms by pinging the suspect itself.
func (m *Member) onReportFailure(ctx context.Context, _ msg.MachineID, req []byte) ([]byte, error) {
	if !m.IsLeader() {
		return nil, errors.New("cluster: not the leader")
	}
	if len(req) != 4 {
		return nil, errors.New("cluster: bad failure report")
	}
	m.failReports.Inc()
	suspect := decodeID(req)
	m.confirmAndRecover(ctx, suspect)
	return []byte{1}, nil
}

// ping round-trips a sync ping to the target, recording its RTT.
func (m *Member) ping(ctx context.Context, target msg.MachineID) ([]byte, error) {
	start := time.Now()
	resp, err := m.node.Call(ctx, target, protoPing, nil)
	if err == nil {
		m.pingRttNs.Observe(int64(time.Since(start)))
	}
	return resp, err
}

// confirmAndRecover pings the suspect and, if it is unreachable, runs the
// recovery protocol under the recovery mutex: mark the suspect confirmed
// dead, rebuild the table away from every confirmed-dead machine, and
// commit the result with a CAS on the encoded predecessor. The elapsed
// time from confirmed suspicion to the committed table is the paper's
// failover latency; it lands in cluster.m<id>.failover_ns.
func (m *Member) confirmAndRecover(ctx context.Context, suspect msg.MachineID) {
	if suspect == m.id || !m.IsLeader() {
		m.mu.Lock()
		delete(m.suspected, suspect) // release the in-flight marker
		m.mu.Unlock()
		return
	}
	pctx, cancel := context.WithTimeout(ctx, m.cfg.FailureTimeout)
	_, perr := m.ping(pctx, suspect)
	cancel()
	if perr == nil {
		m.mu.Lock()
		delete(m.suspected, suspect) // false alarm
		m.mu.Unlock()
		return
	}
	failStart := time.Now()
	if !m.recMu.TryLock() {
		// Another reconfiguration is in flight (two machines dying in the
		// same detector window, or a slave report racing our own
		// detector). Serialize behind it; the rebuild below re-diffs
		// against whatever table it committed.
		m.concurrentRecov.Inc()
		m.recMu.Lock()
	}
	defer m.recMu.Unlock()
	if !m.IsLeader() {
		m.mu.Lock()
		delete(m.suspected, suspect)
		m.mu.Unlock()
		return // deposed while waiting for the recovery mutex
	}
	m.mu.Lock()
	delete(m.lastSeen, suspect)
	delete(m.suspected, suspect)
	m.confirmedDead[suspect] = true
	m.mu.Unlock()
	committed, err := m.commitTable(m.reassignDead)
	if err != nil || !committed {
		return
	}
	m.recoveries.Inc()
	m.failoverNs.Observe(int64(time.Since(failStart)))
}

// reassignDead rebuilds cur with every trunk owned by a confirmed-dead
// machine redistributed across the survivors; nil when every trunk
// already lives on a survivor.
func (m *Member) reassignDead(cur *Table) (*Table, error) {
	m.mu.Lock()
	dead := make(map[msg.MachineID]bool, len(m.confirmedDead))
	for id := range m.confirmedDead {
		dead[id] = true
	}
	heartbeating := map[msg.MachineID]bool{m.id: true}
	for id := range m.lastSeen {
		if !dead[id] {
			heartbeating[id] = true
		}
	}
	m.mu.Unlock()
	if len(dead) == 0 {
		return nil, nil
	}
	// Survivors are the table's live owners: a machine an earlier commit
	// already evicted stays evicted, even if the detector has not yet
	// noticed its death. But after a deposed leader hoarded trunks (its
	// isolated detector "confirmed" everyone dead and reassigned to
	// itself), the adopted table's owner set can be exactly the dead
	// ex-leader — then membership must come from heartbeats plus
	// ourselves, or recovery would find no survivors and wedge.
	var survivors []msg.MachineID
	for _, id := range cur.Machines() {
		if !dead[id] {
			survivors = append(survivors, id)
		}
	}
	if len(survivors) == 0 {
		for id := range heartbeating {
			survivors = append(survivors, id)
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	}
	return cur.ReassignSet(dead, survivors)
}

// commitTable serializes one reconfiguration into the table chain:
// rebuild derives the successor of the current table (nil meaning nothing
// left to do), and the successor is committed to TFS with a CAS on the
// encoded predecessor, so a stale or deposed leader can never clobber a
// newer table. Only after the persistent replica holds the new version is
// it applied locally and broadcast (§6.2: "an update to the primary table
// must be applied to the persistent replica before committing"). On CAS
// failure the winning table is adopted and the rebuild re-run against it;
// on a persistence error nothing is applied or broadcast. Called with
// recMu held.
func (m *Member) commitTable(rebuild func(*Table) (*Table, error)) (bool, error) {
	cur := m.Table()
	prev := cur.Encode()
	for attempt := 0; attempt < casCommitAttempts; attempt++ {
		if m.checkDeposed() {
			return false, errors.New("cluster: deposed mid-commit")
		}
		nt, err := rebuild(cur)
		if err != nil {
			return false, err
		}
		if nt == nil {
			return false, nil
		}
		enc := nt.Encode()
		err = m.fs.CompareAndSwap(tableFile, prev, enc)
		var cas *tfs.CASError
		switch {
		case err == nil:
			if hook := m.commitHook.Load(); hook != nil {
				(*hook)(nt)
			}
			m.applyTable(nt)
			m.broadcastTable(nt, enc)
			return true, nil
		case errors.As(err, &cas):
			m.tableCASRetries.Inc()
			if cas.Current == nil {
				// The primary replica has never been persisted (or was
				// deleted); create it from our predecessor.
				prev = nil
				continue
			}
			live, derr := DecodeTable(cas.Current)
			if derr != nil {
				m.commitErrors.Inc()
				return false, derr
			}
			// Another writer committed first: adopt its table and re-diff
			// the reconfiguration against it.
			m.applyTable(live)
			cur, prev = live, cas.Current
		default:
			m.commitErrors.Inc()
			return false, err
		}
	}
	return false, errors.New("cluster: table commit lost too many CAS races")
}

// checkDeposed re-reads the leader flag before a commit attempt: a leader
// that has been deposed (a successor claimed the flag while we were
// partitioned from the cluster but not from TFS) must abort
// reconfiguration and become a follower, not duel the successor's commit
// chain — two leaders re-diffing against each other's tables would
// otherwise ping-pong commits forever. An unreadable flag does not depose:
// the table CAS itself still arbitrates. Called with recMu held.
func (m *Member) checkDeposed() bool {
	flag, err := m.fs.ReadFile(leaderFlagFile)
	if err != nil || len(flag) != 4 {
		return false
	}
	holder := decodeID(flag)
	if holder == m.id {
		return false
	}
	m.stepdowns.Inc()
	m.mu.Lock()
	m.isLeader = false
	m.leaderID = holder
	m.leaderSeen = time.Now()
	m.mu.Unlock()
	return true
}

// broadcastTable ships a committed table to every machine in it.
func (m *Member) broadcastTable(nt *Table, payload []byte) {
	for _, dst := range nt.Machines() {
		if dst == m.id {
			continue
		}
		// Best effort: "even if some slave machines cannot receive the
		// broadcast message ... a machine will always sync up with the
		// primary addressing table replica when it fails to load a data
		// item" (§6.2).
		m.node.Send(dst, protoTableUpdate, payload)
	}
	m.node.Flush()
}

// onTableUpdate installs a broadcast table (slave side). A broadcast is
// proof of life for its sender: only the machine that won the table CAS
// ships one, so hearing it refreshes the leader liveness deadline.
func (m *Member) onTableUpdate(from msg.MachineID, payload []byte) {
	nt, err := DecodeTable(payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	if from == m.leaderID {
		m.leaderSeen = time.Now()
	}
	m.mu.Unlock()
	m.applyTable(nt)
}

// applyTable installs nt if it is newer than the current replica and fires
// the recovery hooks for trunks acquired or released by this machine.
func (m *Member) applyTable(nt *Table) {
	for {
		cur := m.table.Load()
		if cur != nil && cur.Version >= nt.Version {
			return
		}
		if m.table.CompareAndSwap(cur, nt) {
			acquired := Diff(cur, nt, m.id)
			released := released(cur, nt, m.id)
			if len(acquired) > 0 && m.hooks.AcquireTrunks != nil {
				m.hooks.AcquireTrunks(acquired)
			}
			if len(released) > 0 && m.hooks.ReleaseTrunks != nil {
				m.hooks.ReleaseTrunks(released)
			}
			return
		}
	}
}

// released returns trunks owned by machine m in old but not in new.
func released(old, new *Table, m msg.MachineID) []uint32 {
	if old == nil {
		return nil
	}
	var out []uint32
	for i := range old.Slots {
		if old.Slots[i] == m && new.Slots[i] != m {
			out = append(out, uint32(i))
		}
	}
	return out
}

// ReportFailure tells the leader that machine B looks dead. It is called
// by the memory cloud when a data access fails. The call is synchronous:
// when it returns nil, the leader has run recovery and the caller should
// refresh its table and retry.
func (m *Member) ReportFailure(ctx context.Context, b msg.MachineID) error {
	if m.IsLeader() {
		m.confirmAndRecover(ctx, b)
		return nil
	}
	leader := m.Leader()
	if leader != leaderTombstone && leader != m.id {
		_, err := m.node.Call(ctx, leader, protoReportFail, encodeID(b))
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	// The leader itself is unreachable (or unknown); elect and retry.
	m.tryBecomeLeader(encodeID(leader))
	if m.IsLeader() {
		m.confirmAndRecover(ctx, b)
		return nil
	}
	// We lost the election. Our local belief was just refreshed from the
	// flag, but it can still name the dead leader if our CAS raced the
	// winner's: re-read the authoritative flag until a successor appears,
	// capped by the caller's ctx and FailureTimeout.
	next, err := m.awaitNewLeader(ctx, leader)
	if err != nil {
		return err
	}
	if next == m.id {
		if m.IsLeader() {
			m.confirmAndRecover(ctx, b)
			return nil
		}
		return errors.New("cluster: flag names this member but leadership was not assumed")
	}
	_, err = m.node.Call(ctx, next, protoReportFail, encodeID(b))
	return err
}

// awaitNewLeader polls the leader flag on TFS until it names a successor —
// a valid machine other than the deposed leader — or the caller's ctx
// (capped by FailureTimeout) runs out. Re-reading the flag, rather than
// trusting m.Leader(), is what makes the retry safe: the local belief is
// updated only by our own election attempts and can still point at the
// dead machine.
func (m *Member) awaitNewLeader(ctx context.Context, dead msg.MachineID) (msg.MachineID, error) {
	deadline := time.Now().Add(m.cfg.FailureTimeout)
	pause := m.cfg.HeartbeatInterval / 4
	if pause <= 0 {
		pause = time.Millisecond
	}
	for {
		if flag, err := m.fs.ReadFile(leaderFlagFile); err == nil && len(flag) == 4 {
			if id := decodeID(flag); id != leaderTombstone && id != dead {
				if id != m.id {
					m.mu.Lock()
					m.leaderID = id
					m.leaderSeen = time.Now()
					m.mu.Unlock()
				}
				return id, nil
			}
		}
		if err := ctx.Err(); err != nil {
			return leaderTombstone, err
		}
		if time.Now().After(deadline) {
			return leaderTombstone, errors.New("cluster: no successor leader appeared")
		}
		timer := time.NewTimer(pause)
		select {
		case <-ctx.Done():
			timer.Stop()
			return leaderTombstone, ctx.Err()
		case <-m.stopCh:
			timer.Stop()
			return leaderTombstone, errors.New("cluster: member stopped")
		case <-timer.C:
		}
	}
}

// RefreshTable syncs this member's replica with the primary addressing
// table. The persistent TFS copy is authoritative ("an update to the
// primary table must be applied to the persistent replica before
// committing"), so it is consulted first; if TFS is unreadable the leader
// is asked directly.
func (m *Member) RefreshTable(ctx context.Context) error {
	m.tableSyncs.Inc()
	if payload, err := m.fs.ReadFile(tableFile); err == nil {
		if nt, derr := DecodeTable(payload); derr == nil {
			m.applyTable(nt)
			return nil
		}
	}
	payload, err := m.node.Call(ctx, m.Leader(), protoGetTable, nil)
	if err != nil {
		return fmt.Errorf("cluster: refresh: %w", err)
	}
	nt, err := DecodeTable(payload)
	if err != nil {
		return err
	}
	m.applyTable(nt)
	return nil
}

// onGetTable serves the current table (leader side, but any member can
// answer from its replica).
func (m *Member) onGetTable(context.Context, msg.MachineID, []byte) ([]byte, error) {
	return m.Table().Encode(), nil
}
