package batch_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"trinity/internal/memcloud"
	"trinity/internal/memcloud/batch"
	"trinity/internal/memcloud/fetch"
	"trinity/internal/memcloud/store"
	"trinity/internal/msg"
	"trinity/internal/obs"
)

// The chaos suite of the two policies built on the batching pipeline:
// every fault schedule runs against both the read policy (fetch) and the
// write policy (store). The shared invariant is that every future
// resolves, whatever the network does, and a read resolves with the exact
// bytes that were written or with an error. The write policy adds
// durability: every acknowledged write reads back with its bytes once the
// faults are over, including after a kill in the middle of the load.

// schedule is one fault pattern.
type schedule struct {
	name     string
	machines int
	n        int
	// victim, when set, owns every key of the load and is the machine the
	// faults take away; the table must stop naming it as owner.
	victim msg.MachineID
	opt    batch.Options
	// before installs faults once the cells exist and before any is issued.
	before func(ch *msg.Chaos)
	// midLoad strikes after half the load has been issued.
	midLoad func(c *memcloud.Cloud)
	// benign faults preserve the contract outright: every future succeeds
	// and nothing escalates into a recovery.
	benign bool
	// readsAll: recovery completes within the retry budget, so every read
	// resolves with its value.
	readsAll bool
}

var schedules = []schedule{
	{
		name: "dup_delay", machines: 3, n: 300, benign: true,
		before: func(ch *msg.Chaos) {
			ch.SetDefault(msg.Policy{
				Dup:      0.10,
				Delay:    0.30,
				MaxDelay: 2 * time.Millisecond,
				Jitter:   100 * time.Microsecond,
			})
		},
	},
	{
		name: "drops", machines: 3, n: 200,
		before: func(ch *msg.Chaos) {
			ch.SetDefault(msg.Policy{
				Drop:     0.03,
				Dup:      0.05,
				Delay:    0.20,
				MaxDelay: 2 * time.Millisecond,
			})
		},
	},
	{
		name: "isolate", machines: 3, n: 30, victim: 2, readsAll: true,
		before: func(ch *msg.Chaos) { ch.Isolate(2) },
	},
	{
		// Small batches so the kill lands mid-stream: some batches answered
		// by the victim, some in flight, some queued.
		name: "kill_mid_load", machines: 4, n: 120, victim: 3,
		opt:     batch.Options{MaxBatch: 16, MinBatch: 8},
		midLoad: func(c *memcloud.Cloud) { c.KillMachine(3) },
	},
}

// policy opens one pipeline over a slave and returns how to issue one
// key's operation on it.
type policy struct {
	name  string
	reads bool // the load reads cells written (and backed up) beforehand
	open  func(s *memcloud.Slave, opt batch.Options) (issue func(uint64) *batch.Future, flush, close func())
}

var policies = []policy{
	{
		name: "fetch", reads: true,
		open: func(s *memcloud.Slave, opt batch.Options) (func(uint64) *batch.Future, func(), func()) {
			f := fetch.New(s, opt)
			return f.GetAsync, f.Flush, f.Close
		},
	},
	{
		name: "store",
		open: func(s *memcloud.Slave, opt batch.Options) (func(uint64) *batch.Future, func(), func()) {
			w := store.New(s, opt)
			put := func(k uint64) *batch.Future { return w.PutAsync(k, val(k)) }
			return put, w.Flush, w.Close
		},
	},
}

// TestChaosPipelines runs every schedule against every policy on the
// chaos seeds (CHAOS_SEEDS).
func TestChaosPipelines(t *testing.T) {
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			for _, pol := range policies {
				t.Run(pol.name, func(t *testing.T) {
					for _, seed := range msg.Seeds() {
						t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
							runChaos(t, sc, pol, seed)
						})
					}
				})
			}
		})
	}
}

func runChaos(t *testing.T, sc schedule, pol policy, seed int64) {
	reg := obs.NewRegistry()
	// A short call timeout detects dropped frames in milliseconds, buffered
	// logging gives acknowledged writes a durability story, and outside a
	// kill the failure timeout is high enough that only the explicit
	// failure-report path drives recovery.
	cfg := memcloud.Config{
		Machines:        sc.machines,
		BufferedLogging: true,
		Msg:             msg.Options{FlushInterval: time.Millisecond, CallTimeout: 200 * time.Millisecond},
		Metrics:         reg,
	}
	cfg.Cluster.FailureTimeout = time.Minute
	if sc.midLoad != nil {
		cfg.Cluster.FailureTimeout = 150 * time.Millisecond
	}
	c, ch := memcloud.NewChaosCloud(cfg, seed)
	defer c.Close()
	s0 := c.Slave(0)
	ctx := context.Background()

	var keys []uint64
	for k := uint64(0); len(keys) < sc.n; k++ {
		if sc.victim == 0 || s0.Owner(k) == sc.victim {
			keys = append(keys, k)
		}
	}
	if pol.reads {
		for _, k := range keys {
			if err := s0.Put(ctx, k, val(k)); err != nil {
				t.Fatal(err)
			}
		}
		// A fault can escalate into a failure report; recovered trunks
		// must have something to recover.
		if err := c.Backup(); err != nil {
			t.Fatal(err)
		}
	}
	if sc.before != nil {
		sc.before(ch)
	}

	opt := sc.opt
	opt.Metrics = reg
	issue, flush, closeP := pol.open(s0, opt)
	defer closeP()
	futs := make([]*batch.Future, len(keys))
	for i, k := range keys {
		futs[i] = issue(k)
		if i == len(keys)/2 && sc.midLoad != nil {
			sc.midLoad(c)
		}
	}
	flush()

	deadline := time.After(60 * time.Second)
	var ok []uint64
	for i, fu := range futs {
		select {
		case <-fu.Done():
		case <-deadline:
			t.Fatalf("future for key %d wedged: unresolved after 60s", keys[i])
		}
		v, err := fu.Wait(ctx)
		if err != nil {
			continue
		}
		if pol.reads && !bytes.Equal(v, val(keys[i])) {
			t.Fatalf("key %d resolved with corrupt value", keys[i])
		}
		ok = append(ok, keys[i])
	}
	t.Logf("%d of %d succeeded, retries=%d", len(ok), len(keys),
		reg.Scope(pol.name+".m0").Counter("retries").Load())
	switch {
	case len(ok) == 0:
		t.Fatal("no future succeeded")
	case (sc.benign || sc.readsAll && pol.reads) && len(ok) != len(keys):
		t.Fatalf("%d of %d succeeded; this schedule loses none", len(ok), len(keys))
	}
	if rec := c.Stats().Recoveries; sc.benign && rec != 0 {
		t.Fatalf("spurious recoveries under benign chaos: %d", rec)
	}
	if sc.victim != 0 && s0.Owner(keys[0]) == sc.victim {
		t.Fatal("table still names the lost machine as owner")
	}

	if !pol.reads {
		// Lift the faults and audit the durability set: writes acked by
		// the victim before a kill replay from its WAL group records,
		// later ones landed on the new owner.
		ch.SetDefault(msg.Policy{})
		for _, k := range ok {
			got, err := getEventually(s0, k, 10*time.Second)
			if err != nil {
				t.Fatalf("acked key %d lost: %v", k, err)
			}
			if !bytes.Equal(got, val(k)) {
				t.Fatalf("acked key %d corrupt", k)
			}
		}
	}
}

// val is key k's 16-byte payload.
func val(k uint64) []byte {
	out := make([]byte, 16)
	for i := range out {
		out[i] = byte(k) + byte(i)
	}
	return out
}

// getEventually reads a key, retrying transient post-failover errors (the
// table can commit before the new owner finishes loading the trunk).
func getEventually(s *memcloud.Slave, key uint64, d time.Duration) ([]byte, error) {
	deadline := time.Now().Add(d)
	for {
		got, err := s.Get(context.Background(), key)
		if err == nil {
			return got, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
