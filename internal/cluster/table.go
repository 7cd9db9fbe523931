// Package cluster implements Trinity's cluster membership and fault
// tolerance layer (paper §3, §6.2): the shared addressing table that maps
// the 2^p memory trunks to machines, heartbeat-based failure detection,
// leader election guarded by a flag on the Trinity File System, and the
// recovery protocol that reassigns a failed machine's trunks and
// broadcasts the updated table.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"trinity/internal/msg"
)

// ErrBadTable reports a malformed serialized addressing table.
var ErrBadTable = errors.New("cluster: malformed addressing table")

// Table is the shared addressing table: slot i names the machine that
// currently hosts memory trunk i. Each machine keeps a replica; the
// primary replica lives on the leader and is persisted to TFS before any
// update commits (§6.2). Tables are immutable once built — updates create
// a new table with a higher version, so readers can hold a *Table without
// locking.
type Table struct {
	// Version increases with every update. A machine that observes a
	// higher version than its replica must refresh.
	Version uint64
	// P is the trunk-count exponent: there are 2^P slots.
	P uint
	// Slots maps trunk -> machine.
	Slots []msg.MachineID
}

// NewTable builds the initial table for m machines with 2^p trunks
// assigned round-robin, the layout used at cluster bootstrap.
func NewTable(p uint, machines []msg.MachineID) *Table {
	n := 1 << p
	t := &Table{Version: 1, P: p, Slots: make([]msg.MachineID, n)}
	for i := 0; i < n; i++ {
		t.Slots[i] = machines[i%len(machines)]
	}
	return t
}

// Machine returns the machine hosting the given trunk.
func (t *Table) Machine(trunk uint32) msg.MachineID {
	return t.Slots[trunk]
}

// TrunksOf returns the trunks hosted by the machine, in ascending order.
func (t *Table) TrunksOf(m msg.MachineID) []uint32 {
	var out []uint32
	for i, owner := range t.Slots {
		if owner == m {
			out = append(out, uint32(i))
		}
	}
	return out
}

// Machines returns the distinct machines present in the table.
func (t *Table) Machines() []msg.MachineID {
	seen := make(map[msg.MachineID]bool)
	var out []msg.MachineID
	for _, m := range t.Slots {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// ReassignSet returns a new table (version+1) in which every slot owned
// by a dead machine is redistributed round-robin across survivors: the
// recovery step "reload the memory trunks it owns ... to other alive
// machines" at the addressing level. It takes the whole dead set because a
// recovery that retries after losing a table-commit CAS may find the
// winning table already excludes some of it, so the rebuild must diff
// against every confirmed-dead machine at once. It returns nil (no error)
// when no slot is owned by a dead machine — nothing to commit.
func (t *Table) ReassignSet(dead map[msg.MachineID]bool, survivors []msg.MachineID) (*Table, error) {
	if len(survivors) == 0 {
		return nil, errors.New("cluster: no survivors to reassign to")
	}
	nt := &Table{Version: t.Version + 1, P: t.P, Slots: make([]msg.MachineID, len(t.Slots))}
	copy(nt.Slots, t.Slots)
	j, moved := 0, 0
	for i, owner := range nt.Slots {
		if dead[owner] {
			nt.Slots[i] = survivors[j%len(survivors)]
			j++
			moved++
		}
	}
	if moved == 0 {
		return nil, nil
	}
	return nt, nil
}

// Encode serializes the table.
func (t *Table) Encode() []byte {
	out := make([]byte, 13+4*len(t.Slots))
	binary.LittleEndian.PutUint64(out[0:], t.Version)
	out[8] = byte(t.P)
	binary.LittleEndian.PutUint32(out[9:], uint32(len(t.Slots)))
	for i, m := range t.Slots {
		binary.LittleEndian.PutUint32(out[13+4*i:], uint32(int32(m)))
	}
	return out
}

// DecodeTable parses a table serialized with Encode.
func DecodeTable(b []byte) (*Table, error) {
	if len(b) < 13 {
		return nil, ErrBadTable
	}
	t := &Table{
		Version: binary.LittleEndian.Uint64(b[0:]),
		P:       uint(b[8]),
	}
	n := int(binary.LittleEndian.Uint32(b[9:]))
	if n != 1<<t.P || len(b) != 13+4*n {
		return nil, fmt.Errorf("%w: %d slots for p=%d", ErrBadTable, n, t.P)
	}
	t.Slots = make([]msg.MachineID, n)
	for i := 0; i < n; i++ {
		t.Slots[i] = msg.MachineID(int32(binary.LittleEndian.Uint32(b[13+4*i:])))
	}
	return t, nil
}

// Diff returns the trunks whose owner changed from old to new and are now
// owned by machine m — the set of trunks m must reload from TFS.
func Diff(old, new *Table, m msg.MachineID) []uint32 {
	var acquired []uint32
	for i := range new.Slots {
		if new.Slots[i] == m && (old == nil || old.Slots[i] != m) {
			acquired = append(acquired, uint32(i))
		}
	}
	return acquired
}
