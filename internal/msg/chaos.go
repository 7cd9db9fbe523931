package msg

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"trinity/internal/buf"
)

// Chaos is a seeded, fault-injecting Transport decorator: it sits between
// a Node and the real transport (Bus or TCP) and injects drops, delays,
// duplicates and one-way partitions according to per-(sender, receiver)
// policies. One Chaos hub decorates every endpoint of a simulated cluster
// so a single seed reproduces a whole cluster's fault schedule.
//
// Determinism: all randomness comes from one seeded PRNG, consumed in
// Send-call order. A single-goroutine send sequence replays exactly; under
// concurrency the schedule is reproducible in distribution (the same seed
// explores the same fault mix), which is what the chaos CI seeds pin down.
//
// Chaos deliberately distinguishes two fault classes:
//
//   - Contract-preserving faults (Jitter, PoisonFrames): a correct Node
//     must survive them with zero observable difference. Jitter stretches
//     the window between concurrent transport sends — the schedule noise
//     that exposes ordering races. Poisoning scribbles over every frame
//     after the receiver callback returns, which catches any component
//     that retains a transport-owned buffer (see the Transport ownership
//     contract in transport.go).
//   - Contract-breaking faults (Drop, Dup, Delay, Cut): the network is
//     allowed to do these, so layers above msg (memcloud's Slave.do
//     retry, cluster failure detection) must recover; the Node itself
//     promises nothing about messages the transport never delivered.
//
//reach:test-seam fault injection: chaos tests in msg, memcloud, fetch, store and compute/* set link policies on it
type Chaos struct {
	mu       sync.Mutex
	rng      *rand.Rand
	def      Policy
	pairs    map[[2]MachineID]Policy
	isolated map[MachineID]bool
	poison   bool
	stats    ChaosStats
	// inFlight counts delayed frames not yet handed to the inner
	// transport; drained is signalled, under mu, when it drops to zero.
	// A count under the mutex, not a WaitGroup: delayed sends go on
	// while Drain waits, and a WaitGroup forbids an Add from zero that
	// races a Wait.
	inFlight int
	drained  sync.Cond
	closed   bool
}

// Policy is the fault mix applied to one (sender, receiver) direction.
// The zero Policy injects nothing.
type Policy struct {
	// Drop is the probability a frame is silently lost (the sender's
	// Send still returns nil, exactly like a lossy network).
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Delay is the probability a frame is held back for a random
	// duration up to MaxDelay before reaching the transport, reordering
	// it against later frames.
	Delay float64
	// MaxDelay bounds Delay's holdback. Zero means 1ms.
	MaxDelay time.Duration
	// Jitter adds a uniform random sleep in [0, Jitter) inside every
	// Send. Unlike Delay it blocks the caller, so it cannot reorder
	// frames a correct Node sequences — it only widens race windows.
	Jitter time.Duration
	// Cut drops every frame: a one-way partition.
	Cut bool
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Sent       int64 // frames submitted to chaos endpoints
	Delivered  int64 // frames handed to the inner transport (dups count)
	Dropped    int64 // frames lost to Drop or Cut
	Duplicated int64
	Delayed    int64
}

// NewChaos creates a fault injector with the given PRNG seed.
func NewChaos(seed int64) *Chaos {
	c := &Chaos{
		rng:      rand.New(rand.NewSource(seed)),
		pairs:    make(map[[2]MachineID]Policy),
		isolated: make(map[MachineID]bool),
	}
	c.drained.L = &c.mu
	return c
}

// SetDefault installs the policy used for pairs without an override.
func (c *Chaos) SetDefault(p Policy) {
	c.mu.Lock()
	c.def = p
	c.mu.Unlock()
}

// SetPair overrides the policy for frames from -> to.
func (c *Chaos) SetPair(from, to MachineID, p Policy) {
	c.mu.Lock()
	c.pairs[[2]MachineID{from, to}] = p
	c.mu.Unlock()
}

// Cut installs a one-way partition: every frame from -> to is dropped.
func (c *Chaos) Cut(from, to MachineID) {
	c.SetPair(from, to, Policy{Cut: true})
}

// Heal removes the pair override for from -> to.
func (c *Chaos) Heal(from, to MachineID) {
	c.mu.Lock()
	delete(c.pairs, [2]MachineID{from, to})
	c.mu.Unlock()
}

// Isolate drops every frame to and from id (a full partition of one
// machine, as seen by everyone else a crash).
func (c *Chaos) Isolate(id MachineID) {
	c.mu.Lock()
	c.isolated[id] = true
	c.mu.Unlock()
}

// PoisonFrames makes every chaos endpoint mark the frames it forwards so
// that the final lease Release scribbles garbage over the backing array
// before recycling it. Any component that kept an alias past its last
// reference reads the garbage (and races with the scribble under -race) —
// the lease-era equivalent of emulating a buffer-reusing transport.
func (c *Chaos) PoisonFrames(on bool) {
	c.mu.Lock()
	c.poison = on
	c.mu.Unlock()
}

// Stats returns a snapshot of injected-fault counts.
func (c *Chaos) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Drain blocks until all delayed frames have been handed to (or refused
// by) the inner transports. Tests call it before asserting delivery
// counts. Sends may go on during a Drain; it returns at a moment when no
// delayed frame is in flight.
func (c *Chaos) Drain() {
	c.mu.Lock()
	for c.inFlight > 0 {
		c.drained.Wait()
	}
	c.mu.Unlock()
}

// Wrap decorates one transport endpoint. Wrap every endpoint of a
// cluster with the same Chaos so pairwise policies cover all links.
func (c *Chaos) Wrap(tr Transport) Transport {
	return &chaosEndpoint{c: c, inner: tr}
}

type chaosEndpoint struct {
	c     *Chaos
	inner Transport
}

func (e *chaosEndpoint) Local() MachineID { return e.inner.Local() }

func (e *chaosEndpoint) SetReceiver(fn func(MachineID, *buf.Lease)) {
	e.inner.SetReceiver(fn)
}

func (e *chaosEndpoint) Close() error { return e.inner.Close() }

func (e *chaosEndpoint) Send(to MachineID, frame *buf.Lease) error {
	c := e.c
	from := e.inner.Local()
	c.mu.Lock()
	p, ok := c.pairs[[2]MachineID{from, to}]
	if !ok {
		p = c.def
	}
	cut := p.Cut || c.isolated[from] || c.isolated[to]
	c.stats.Sent++
	poison := c.poison
	var jitter, delay time.Duration
	var dup bool
	drop := cut
	if !drop && p.Drop > 0 && c.rng.Float64() < p.Drop {
		drop = true
	}
	if drop {
		c.stats.Dropped++
		c.mu.Unlock()
		// A dropped frame still settles the sender's reference: the
		// network ate it, exactly like a lossy link.
		frame.Release()
		return nil
	}
	if p.Jitter > 0 {
		jitter = time.Duration(c.rng.Int63n(int64(p.Jitter)))
	}
	if p.Delay > 0 && c.rng.Float64() < p.Delay {
		md := p.MaxDelay
		if md <= 0 {
			md = time.Millisecond
		}
		delay = time.Duration(c.rng.Int63n(int64(md))) + time.Microsecond
		c.stats.Delayed++
		c.inFlight++
	}
	if p.Dup > 0 && c.rng.Float64() < p.Dup {
		dup = true
		c.stats.Duplicated++
	}
	c.mu.Unlock()

	if poison {
		frame.Poison()
	}
	if jitter > 0 {
		time.Sleep(jitter)
	}
	// Duplication shares the backing array: one extra reference, two
	// deliveries, and the bytes survive until the last receiver settles
	// its reference. No copy — which is precisely what makes dup+delay
	// the sharpest test of the lease contract: a receiver that releases
	// early hands its duplicate a recycled buffer.
	if delay > 0 {
		if dup {
			frame.Retain()
		}
		go func() {
			time.Sleep(delay)
			delivered := e.inner.Send(to, frame) == nil
			c.mu.Lock()
			if delivered {
				c.stats.Delivered++
			}
			if c.inFlight--; c.inFlight == 0 {
				c.drained.Broadcast()
			}
			c.mu.Unlock()
		}()
		if dup {
			err := e.inner.Send(to, frame)
			if err == nil {
				c.countDelivered()
			}
			return err
		}
		return nil
	}
	if dup {
		frame.Retain()
	}
	err := e.inner.Send(to, frame)
	if err == nil {
		c.countDelivered()
	}
	if dup {
		if err == nil {
			if e.inner.Send(to, frame) == nil {
				c.countDelivered()
			}
		} else {
			frame.Release()
		}
	}
	return err
}

func (c *Chaos) countDelivered() {
	c.mu.Lock()
	c.stats.Delivered++
	c.mu.Unlock()
}

// Seeds returns the chaos seeds for this test run: the CHAOS_SEEDS
// environment variable as a comma-separated list, or the fixed default
// {1, 2, 3}. CI pins its seeds through the same variable, so a failed CI
// seed reproduces locally with e.g. CHAOS_SEEDS=42 go test -race -run
// Chaos ./internal/...
//
//reach:test-seam every chaos test ranges over it so CI and a local replay share CHAOS_SEEDS
func Seeds() []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3}
	}
	var out []int64
	for _, f := range strings.Split(env, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if v, err := strconv.ParseInt(f, 10, 64); err == nil {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return []int64{1, 2, 3}
	}
	return out
}
