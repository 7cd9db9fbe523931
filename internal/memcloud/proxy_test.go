package memcloud

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"trinity/internal/msg"
)

// keyOwnedBy returns a key the addressing table currently places on m.
func keyOwnedBy(t *testing.T, c *Cloud, m msg.MachineID) uint64 {
	t.Helper()
	return keysOwnedBy(t, c, m, 1)[0]
}

// TestProxyGetPutAgainstKilledNode: a proxy routes by the addressing
// table; when the owner is dead and nobody has driven recovery yet, Get
// and Put must fail with a transport error, not hang and not report a
// phantom ErrNotFound.
func TestProxyGetPutAgainstKilledNode(t *testing.T) {
	cfg := testConfig(3)
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	c := New(cfg)
	t.Cleanup(c.Close)
	p := c.NewProxy()
	defer p.Close()

	key := keyOwnedBy(t, c, 2)
	if err := p.Put(context.Background(), key, val(16, 1)); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(2)

	start := time.Now()
	_, err := p.Get(context.Background(), key)
	if err == nil {
		t.Fatal("Get against killed owner succeeded")
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatalf("Get against killed owner reported ErrNotFound: %v", err)
	}
	if err := p.Put(context.Background(), key, val(16, 2)); err == nil {
		t.Fatal("Put against killed owner succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("proxy calls to a dead node took %v", elapsed)
	}
}

// TestProxyOwnerTracksRecovery: after the failure protocol reassigns the
// dead machine's trunks, the proxy's table replica must route around it
// and serve the recovered data.
func TestProxyOwnerTracksRecovery(t *testing.T) {
	cfg := testConfig(3)
	cfg.Msg.CallTimeout = 200 * time.Millisecond
	c := New(cfg)
	t.Cleanup(c.Close)
	p := c.NewProxy()
	defer p.Close()

	key := keyOwnedBy(t, c, 2)
	if err := p.Put(context.Background(), key, val(16, 7)); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(); err != nil {
		t.Fatal(err)
	}
	c.KillMachine(2)
	p.ReportFailure(context.Background(), 2) // synchronous: recovery has run when this returns
	p.RefreshTable(context.Background())

	if owner := p.Owner(key); owner == 2 {
		t.Fatal("proxy still routes to the failed machine after recovery")
	}
	got, err := p.Get(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val(16, 7)) {
		t.Fatal("recovered value corrupt through proxy")
	}
}

// TestProxyOwnerTracksJoin: AddMachine rebalances trunks onto the joiner;
// the proxy's ownerOf must follow the new table version and its calls
// must reach the joiner's endpoint.
func TestProxyOwnerTracksJoin(t *testing.T) {
	c := newCloud(t, 2)
	p := c.NewProxy()
	defer p.Close()

	for k := uint64(0); k < 64; k++ {
		if err := p.Put(context.Background(), k, val(8, byte(k))); err != nil {
			t.Fatal(err)
		}
	}
	joiner, err := c.AddMachine()
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, c, joiner.ID())
	if p.Owner(key) != joiner.ID() {
		t.Fatal("proxy table replica did not pick up the rebalanced owner")
	}
	if err := p.Put(context.Background(), key, val(8, 99)); err != nil {
		t.Fatalf("Put routed to joiner: %v", err)
	}
	got, err := p.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get routed to joiner: %v", err)
	}
	if !bytes.Equal(got, val(8, 99)) {
		t.Fatal("joiner round trip corrupt")
	}
}

// countProto registers a local-cell-count protocol on every live slave
// and returns its id.
func countProto(c *Cloud) msg.ProtocolID {
	const proto msg.ProtocolID = 0x0901
	for i := 0; i < c.Slaves(); i++ {
		s := c.Slave(i)
		ss := s
		s.Node().HandleSync(proto, func(context.Context, msg.MachineID, []byte) ([]byte, error) {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], uint32(len(ss.LocalKeys())))
			return buf[:], nil
		})
	}
	return proto
}

// TestProxyScatterGatherSkipsKilledMachine: a dead slave is skipped, the
// survivors still aggregate.
func TestProxyScatterGatherSkipsKilledMachine(t *testing.T) {
	c := newCloud(t, 3)
	proto := countProto(c)
	p := c.NewProxy()
	defer p.Close()

	c.KillMachine(1)
	var machines []msg.MachineID
	err := p.ScatterGather(context.Background(), proto, nil, func(m msg.MachineID, _ []byte) error {
		machines = append(machines, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 2 {
		t.Fatalf("combined %d machines, want 2 (dead one skipped)", len(machines))
	}
	for _, m := range machines {
		if m == 1 {
			t.Fatal("dead machine reached the combiner")
		}
	}
}

// TestProxyScatterGatherChaosCutSurfacesError: a machine that is alive in
// the membership but unreachable from the proxy (network partition) must
// surface as an error from ScatterGather, not be silently dropped.
func TestProxyScatterGatherChaosCutSurfacesError(t *testing.T) {
	for _, seed := range msg.Seeds() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testConfig(3)
			cfg.Msg.CallTimeout = 200 * time.Millisecond
			c, ch := NewChaosCloud(cfg, seed)
			t.Cleanup(c.Close)
			proto := countProto(c)
			p := c.NewProxy()
			defer p.Close()

			ch.Cut(p.ID(), 2)
			ch.Cut(2, p.ID())
			err := p.ScatterGather(context.Background(), proto, nil, func(msg.MachineID, []byte) error { return nil })
			if err == nil {
				t.Fatal("partitioned slave did not surface as a ScatterGather error")
			}
			// Healed, the same sweep succeeds and covers all machines.
			ch.Heal(p.ID(), 2)
			ch.Heal(2, p.ID())
			seen := 0
			err = p.ScatterGather(context.Background(), proto, nil, func(msg.MachineID, []byte) error {
				seen++
				return nil
			})
			if err != nil || seen != 3 {
				t.Fatalf("after heal: err=%v machines=%d", err, seen)
			}
		})
	}
}
