// Package tfs implements the Trinity File System: a shared, fault-tolerant
// distributed file system in the spirit of HDFS (paper §3, §6.2). Memory
// trunks are backed up to TFS for persistence; the cluster leader keeps the
// primary addressing table replica on TFS; buffered-logging WAL records
// are appended to TFS; and leader election uses an atomic flag file on TFS
// to prevent split-brain.
//
// The implementation simulates a cluster of datanodes inside one process:
// files are split into fixed-size blocks, each block is replicated on R
// datanodes, and a namenode tracks block placement. Killing a datanode
// triggers re-replication from surviving replicas; data is lost only when
// every replica of some block is gone, which is exactly the failure model
// the recovery paths above are written against.
package tfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"trinity/internal/hash"
)

// Errors returned by TFS operations.
var (
	// ErrNotExist reports that the named file does not exist.
	ErrNotExist = errors.New("tfs: file does not exist")
	// ErrUnavailable reports that a block of the file has lost all of its
	// replicas and the file cannot be reconstructed.
	ErrUnavailable = errors.New("tfs: file unavailable (all replicas lost)")
	// ErrCASMismatch reports that an atomic compare-and-swap failed.
	ErrCASMismatch = errors.New("tfs: compare-and-swap mismatch")
	// ErrNoDatanodes reports that no live datanodes remain.
	ErrNoDatanodes = errors.New("tfs: no live datanodes")
)

const (
	// DefaultBlockSize is the default file block size.
	DefaultBlockSize = 64 << 10
	// DefaultReplication is the default replica count per block,
	// matching HDFS's classic default of 3.
	DefaultReplication = 3
)

// Options configures a file system.
type Options struct {
	// Datanodes is the number of simulated storage nodes. Zero means 3.
	Datanodes int
	// BlockSize is the block granularity. Zero means DefaultBlockSize.
	BlockSize int
	// Replication is the replica count per block, capped at the number of
	// datanodes. Zero means DefaultReplication.
	Replication int
}

type blockID uint64

// datanode is one simulated storage node.
type datanode struct {
	id     int
	alive  bool
	blocks map[blockID][]byte
}

// fileMeta is the namenode's record of one file.
type fileMeta struct {
	size    int
	blocks  []blockID
	version uint64 // bumped on every write; stale readers can detect races
}

// FS is a simulated Trinity File System. All methods are safe for
// concurrent use.
type FS struct {
	mu          sync.Mutex
	blockSize   int
	replication int
	nodes       []*datanode
	files       map[string]*fileMeta
	placement   map[blockID][]int // block -> datanode ids
	nextBlock   blockID
	rng         *hash.RNG

	stats Stats
}

// Stats counts file-system activity.
type Stats struct {
	Writes        int64
	Reads         int64
	BytesWritten  int64
	BytesRead     int64
	ReReplicated  int64 // blocks re-replicated after a node failure
	BlocksLost    int64 // blocks that lost every replica
	NodesFailed   int64
	NodesRecov    int64
	BlocksOnNodes int64 // current replica count across all nodes
}

// New creates an empty file system.
func New(opts Options) *FS {
	if opts.Datanodes <= 0 {
		opts.Datanodes = 3
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.Replication <= 0 {
		opts.Replication = DefaultReplication
	}
	if opts.Replication > opts.Datanodes {
		opts.Replication = opts.Datanodes
	}
	fs := &FS{
		blockSize:   opts.BlockSize,
		replication: opts.Replication,
		files:       make(map[string]*fileMeta),
		placement:   make(map[blockID][]int),
		rng:         hash.NewRNG(0x7f5),
	}
	for i := 0; i < opts.Datanodes; i++ {
		fs.nodes = append(fs.nodes, &datanode{id: i, alive: true, blocks: make(map[blockID][]byte)})
	}
	return fs
}

// liveNodes returns the ids of all alive datanodes. Called with fs.mu held.
func (fs *FS) liveNodes() []int {
	var ids []int
	for _, n := range fs.nodes {
		if n.alive {
			ids = append(ids, n.id)
		}
	}
	return ids
}

// pickNodes chooses r distinct live datanodes, preferring the least
// loaded. Called with fs.mu held.
func (fs *FS) pickNodes(r int) ([]int, error) {
	live := fs.liveNodes()
	if len(live) == 0 {
		return nil, ErrNoDatanodes
	}
	if r > len(live) {
		r = len(live)
	}
	sort.Slice(live, func(i, j int) bool {
		li, lj := len(fs.nodes[live[i]].blocks), len(fs.nodes[live[j]].blocks)
		if li != lj {
			return li < lj
		}
		return live[i] < live[j]
	})
	return live[:r], nil
}

// WriteFile atomically creates or replaces the named file.
func (fs *FS) WriteFile(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writeLocked(name, data)
}

func (fs *FS) writeLocked(name string, data []byte) error {
	if len(fs.liveNodes()) == 0 {
		return ErrNoDatanodes
	}
	// Lay out new blocks first so a failure leaves the old file intact.
	var blocks []blockID
	for off := 0; off < len(data) || (off == 0 && len(data) == 0); off += fs.blockSize {
		end := off + fs.blockSize
		if end > len(data) {
			end = len(data)
		}
		id := fs.nextBlock
		fs.nextBlock++
		nodes, err := fs.pickNodes(fs.replication)
		if err != nil {
			return err
		}
		chunk := append([]byte(nil), data[off:end]...)
		for _, nid := range nodes {
			fs.nodes[nid].blocks[id] = chunk
		}
		fs.placement[id] = nodes
		blocks = append(blocks, id)
		if len(data) == 0 {
			break
		}
	}
	if old, ok := fs.files[name]; ok {
		fs.releaseBlocks(old.blocks)
		old.blocks = blocks
		old.size = len(data)
		old.version++
	} else {
		fs.files[name] = &fileMeta{size: len(data), blocks: blocks, version: 1}
	}
	fs.stats.Writes++
	fs.stats.BytesWritten += int64(len(data))
	return nil
}

// releaseBlocks removes blocks from all datanodes. Called with fs.mu held.
func (fs *FS) releaseBlocks(blocks []blockID) {
	for _, id := range blocks {
		for _, nid := range fs.placement[id] {
			delete(fs.nodes[nid].blocks, id)
		}
		delete(fs.placement, id)
	}
}

// ReadFile returns the file's contents.
func (fs *FS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	out := make([]byte, 0, meta.size)
	for _, id := range meta.blocks {
		chunk, err := fs.readBlockLocked(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, chunk...)
	}
	fs.stats.Reads++
	fs.stats.BytesRead += int64(len(out))
	return out, nil
}

func (fs *FS) readBlockLocked(id blockID) ([]byte, error) {
	for _, nid := range fs.placement[id] {
		n := fs.nodes[nid]
		if n.alive {
			if chunk, ok := n.blocks[id]; ok {
				return chunk, nil
			}
		}
	}
	return nil, ErrUnavailable
}

// AppendFile appends data to the named file, creating it if absent.
// The append is atomic with respect to concurrent readers and appenders.
// It backs the buffered-logging recovery path (§6.2 / RAMCloud-style).
func (fs *FS) AppendFile(name string, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var prev []byte
	if meta, ok := fs.files[name]; ok {
		prev = make([]byte, 0, meta.size+len(data))
		for _, id := range meta.blocks {
			chunk, err := fs.readBlockLocked(id)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			prev = append(prev, chunk...)
		}
	}
	return fs.writeLocked(name, append(prev, data...))
}

// Delete removes the named file.
//
//reach:test-seam memcloud's WAL-failure test deletes the control-plane files an all-datanode loss corrupted
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	fs.releaseBlocks(meta.blocks)
	delete(fs.files, name)
	return nil
}

// List returns the names of all files with the given prefix, sorted.
//
//reach:test-seam tests enumerate TFS files (tfs's own, and memcloud's WAL test clearing files whose blocks were lost); no program lists files
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CASError is the failure surface of CompareAndSwap: it satisfies
// errors.Is(err, ErrCASMismatch) and carries the file's actual contents at
// decision time, so a caller that lost the race can re-diff against the
// winning value without a second read (which could itself race a later
// writer). Current is nil when the file did not exist.
type CASError struct {
	// Current is the file's contents at the moment the swap was refused;
	// nil means the file did not exist.
	Current []byte
}

func (e *CASError) Error() string {
	if e.Current == nil {
		return "tfs: compare-and-swap mismatch (file does not exist)"
	}
	return "tfs: compare-and-swap mismatch"
}

// Is makes errors.Is(err, ErrCASMismatch) hold for every CASError.
func (e *CASError) Is(target error) bool { return target == ErrCASMismatch }

// CompareAndSwap atomically replaces the file's contents with new if the
// current contents equal old. A nil old means "the file must not exist".
// This is the primitive behind leader election: "the new leader marks a
// flag on the shared distributed fault-tolerant file system to avoid
// multiple leaders" (§6.2). A mismatch is reported as a *CASError carrying
// the current contents; read failures (lost replicas) surface as-is.
func (fs *FS) CompareAndSwap(name string, old, new []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	meta, exists := fs.files[name]
	if !exists {
		if old == nil {
			return fs.writeLocked(name, new)
		}
		return &CASError{}
	}
	cur := make([]byte, 0, meta.size)
	for _, id := range meta.blocks {
		chunk, err := fs.readBlockLocked(id)
		if err != nil {
			return err
		}
		cur = append(cur, chunk...)
	}
	if old == nil || string(cur) != string(old) {
		return &CASError{Current: cur}
	}
	return fs.writeLocked(name, new)
}

// FailNode simulates the crash of a datanode. Blocks that still have a
// live replica are re-replicated onto other nodes to restore the
// replication factor; blocks whose last replica died are lost.
//
//reach:test-seam fault injection: memcloud's WAL-failure test fails every datanode
func (fs *FS) FailNode(id int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id < 0 || id >= len(fs.nodes) {
		return fmt.Errorf("tfs: no datanode %d", id)
	}
	n := fs.nodes[id]
	if !n.alive {
		return nil
	}
	n.alive = false
	fs.stats.NodesFailed++
	for bid := range n.blocks {
		fs.reReplicateLocked(bid, id)
	}
	n.blocks = make(map[blockID][]byte)
	return nil
}

// reReplicateLocked restores the replication factor of a block after node
// `failed` died. Called with fs.mu held.
func (fs *FS) reReplicateLocked(bid blockID, failed int) {
	placement := fs.placement[bid]
	var survivors []int
	for _, nid := range placement {
		if nid != failed && fs.nodes[nid].alive {
			survivors = append(survivors, nid)
		}
	}
	if len(survivors) == 0 {
		fs.stats.BlocksLost++
		fs.placement[bid] = nil
		return
	}
	src := fs.nodes[survivors[0]].blocks[bid]
	// Choose replacement nodes not already holding the block.
	holding := make(map[int]bool, len(survivors))
	for _, nid := range survivors {
		holding[nid] = true
	}
	for _, nid := range fs.liveNodes() {
		if len(survivors) >= fs.replication {
			break
		}
		if holding[nid] {
			continue
		}
		fs.nodes[nid].blocks[bid] = src
		survivors = append(survivors, nid)
		fs.stats.ReReplicated++
	}
	fs.placement[bid] = survivors
}

// RecoverNode brings a failed datanode back online, empty. The rebalancer
// will use it for future placements.
//
//reach:test-seam fault injection: undoes FailNode
func (fs *FS) RecoverNode(id int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if id < 0 || id >= len(fs.nodes) {
		return fmt.Errorf("tfs: no datanode %d", id)
	}
	if !fs.nodes[id].alive {
		fs.nodes[id].alive = true
		fs.stats.NodesRecov++
	}
	return nil
}

// Stats returns a snapshot of activity counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	s := fs.stats
	for _, n := range fs.nodes {
		s.BlocksOnNodes += int64(len(n.blocks))
	}
	return s
}
