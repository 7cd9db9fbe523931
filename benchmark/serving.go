package main

import (
	"fmt"
	"time"
)

// The three workloads that drive a spawned trinityd over its TCP line
// protocol.

// workloadGen is what a serving workload supplies: its input streams and
// the model that judges the replies.
type workloadGen interface {
	// preload returns the stages that populate a fresh daemon; a stage is
	// awaited in full before the next starts.
	preload() [][]*stream
	// mix returns n requests per connection of the workload's traffic.
	// warm marks the warm-up, which graph_serve sends without its write
	// trickle so that the replies can be checked exactly.
	mix(n int, warm bool) []*stream
	// check verifies one phase's replies and advances the model.
	check(phase string, streams []*stream, logs []*connLog, preloading bool) tally
	userBytes() float64
}

type kvWorkload struct {
	gen   *kvGen
	model *kvModel
	r     *rng
}

func (w *kvWorkload) preload() [][]*stream { return [][]*stream{w.gen.preload(w.r.split(0))} }

func (w *kvWorkload) mix(n int, _ bool) []*stream { return w.gen.mix(w.r, n) }

func (w *kvWorkload) check(phase string, streams []*stream, logs []*connLog, _ bool) tally {
	return w.model.check(phase, streams, logs)
}

func (w *kvWorkload) userBytes() float64 { return w.model.userBytes() }

type graphWorkload struct {
	gen   *graphGen
	model *graphModel
	r     *rng
}

func (w *graphWorkload) preload() [][]*stream {
	nodes, edges := w.gen.preload()
	return [][]*stream{nodes, edges}
}

func (w *graphWorkload) mix(n int, warm bool) []*stream { return w.gen.mix(w.r, n, !warm) }

func (w *graphWorkload) check(phase string, streams []*stream, logs []*connLog, preloading bool) tally {
	if preloading {
		// The preloaded edges are the model's base graph already.
		return checkAll(phase, logs, replyOK)
	}
	return w.model.check(phase, streams, logs)
}

func (w *graphWorkload) userBytes() float64 { return w.model.userBytes() }

func newWorkloadGen(sp *spec, seed uint64, nconn int) workloadGen {
	r := newRNG(seed ^ fnvAdd(fnvOffset, []byte(sp.name)))
	if sp.nodes > 0 {
		g := newGraphGen(r, sp.nodes, sp.degree, sp.startPool, nconn, sp.edgePct)
		return &graphWorkload{gen: g, model: newGraphModel(sp.nodes, g.edges), r: r}
	}
	// The key count is sp.keys less up to 2 %, drawn from the seed, so
	// that the bytes stored differ from seed to seed like everything else.
	keys := sp.keys - r.intn(sp.keys/50+1)
	g := &kvGen{
		seed: seed, nkeys: uint64(keys), nconn: nconn,
		getPct: sp.getPct, appPct: sp.appPct, minSize: sp.minSize, maxSize: sp.maxSize,
	}
	if sp.zipfTheta > 0 {
		g.zipf = newZipf(keys, sp.zipfTheta)
	}
	return &kvWorkload{gen: g, model: newKVModel(keys, nconn), r: r}
}

// served is a daemon that has been populated and is ready for traffic.
type served struct {
	d       *daemon
	clients []*client
}

func (s *served) close(graceful bool) {
	closeAll(s.clients)
	if graceful {
		s.d.stop()
	} else {
		s.d.kill()
	}
}

// setUp starts a daemon, connects and preloads it. It returns the time
// from process start to the last preload reply, the preload rate, and
// the verdict on the preload replies.
func setUp(env *runEnv, stages [][]*stream, w workloadGen, nconn int) (*served, time.Duration, float64, tally, error) {
	var t tally
	begin := time.Now()
	d, err := startDaemon(env.daemonBin, machines, env.traced, env.place)
	if err != nil {
		return nil, 0, 0, t, err
	}
	clients, err := dialAll(d.addr, nconn)
	if err != nil {
		d.kill()
		return nil, 0, 0, t, err
	}
	s := &served{d: d, clients: clients}
	loaded, loading := 0, time.Duration(0)
	for i, stage := range stages {
		logs, took := runClosed(clients, stage, capDepth, time.Hour)
		t.add(w.check(fmt.Sprintf("preload stage %d", i), stage, logs, true))
		for _, l := range logs {
			loaded += l.done
		}
		loading += took
	}
	return s, time.Since(begin), float64(loaded) / loading.Seconds(), t, nil
}

// phaseRequests is how many requests per connection a closed-loop phase
// of dur is given: what the workload's ceiling rate would consume. A
// phase that runs out of requests before it runs out of time would report
// a rate with idle windows in it, so runServing refuses to go on then.
func phaseRequests(sp *spec, dur time.Duration, nconn int) int {
	return int(sp.ceiling/float64(nconn)*dur.Seconds()) + capDepth
}

// runServing measures one serving workload against a fresh daemon.
func runServing(sp *spec, env *runEnv) (*result, error) {
	res := newResult(sp.name, env.seed, env.traced)
	nconn := connections()
	w := newWorkloadGen(sp, env.seed, nconn)
	b := servingBudget(env.seconds)
	stages := w.preload()

	// Split the machine between this process and the daemons it starts.
	env.place = plan()
	if err := env.place.confineSelf(); err != nil {
		return nil, err
	}
	defer env.place.releaseSelf()

	// Set-up, several times over: only the last daemon is kept. The
	// model replays the same preload each time, which leaves it unchanged.
	reps := setupReps
	if env.traced || env.smoke {
		reps = 1
	}
	var sv *served
	var setupS, ingest []float64
	for i := 0; i < reps; i++ {
		s, took, rate, t, err := setUp(env, stages, w, nconn)
		if err != nil {
			return nil, err
		}
		setupS, ingest = append(setupS, took.Seconds()), append(ingest, rate)
		logf("set-up %d: %v, %.0f items/s, %d failed %v", i, took, rate, t.failed, t.notes)
		res.add(t)
		if i < reps-1 {
			s.close(false)
			continue
		}
		sv = s
	}
	defer func() {
		if sv != nil {
			sv.close(false)
		}
	}()
	res.setFrom("setup_s", "s", setupS)
	res.setFrom("ingest_cells_s", "cells/s", ingest)

	// closed runs one closed-loop phase of the workload's mix and checks it.
	closed := func(name string, depth int, dur time.Duration, warm bool) ([]*connLog, error) {
		streams := w.mix(phaseRequests(sp, dur, nconn), warm)
		logs, took := runClosed(sv.clients, streams, depth, dur)
		t := w.check(name, streams, logs, false)
		logf("%s: %v, %d attempted, %d failed %v", name, took, t.attempted, t.failed, t.notes)
		res.add(t)
		for c, l := range logs {
			if l.err != nil {
				return nil, fmt.Errorf("%s: connection %d: %w", name, c, l.err)
			}
			if l.sent == streams[c].len() {
				return nil, fmt.Errorf("%s: the daemon outran the %0.f ops/s the request streams are sized for; raise the workload's ceiling", name, sp.ceiling)
			}
		}
		return logs, nil
	}

	if _, err := closed("warm-up", 8, b.warm, true); err != nil {
		return nil, err
	}

	if env.traced {
		if err := servingTraced(sp, res, sv, w, b, nconn); err != nil {
			return nil, err
		}
	} else {
		// Round-trip time: one request outstanding per connection.
		logs, err := closed("rtt", 1, b.rtt, false)
		if err != nil {
			return nil, err
		}
		rtt := samplesOf(logs)
		p50s := windowP50s(windows(rtt, windowFor(b.rtt), int64(b.rtt)))
		res.set("rtt_p50_us", "us", median(p50s)/1e3, len(rtt), spread(p50s))

		// Capacity: the pipe kept full; daemon CPU read around the phase.
		cpu0, err := cpuSeconds(sv.d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		logs, err = closed("capacity", capDepth, b.capacity, false)
		if err != nil {
			return nil, err
		}
		cpu1, err := cpuSeconds(sv.d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		capSamples := samplesOf(logs)
		rates := windowRates(windows(capSamples, windowFor(b.capacity), int64(b.capacity)), windowFor(b.capacity))
		res.setFrom("capacity_ops_s", "ops/s", rates)
		if n := len(capSamples); n > 0 {
			res.set("cpu_us_per_op", "us", (cpu1-cpu0)*1e6/float64(n), n, 0)
		}

		// Open loop at the reference rate, timed from the due instant.
		rate := sp.rates[rateRef]
		open, err := openPhase(sp, res, sv, w, "open", rate, b.open, nconn)
		if err != nil {
			return nil, err
		}
		res.set("lat_p50_us", "us", open.p50Us, open.samples, open.p50Spread)
		res.set("lat_p99_us", "us", open.p99Us, open.windows, open.p99Spread)
		res.set("loadgen.late_p99_us", "us", open.lateP99Us, open.samples, 0)
	}

	// End state: space, leaked leases, spurious recoveries.
	mem, recoveries, err := sv.clients[0].stats()
	if err != nil {
		return nil, err
	}
	res.set("store_bytes_per_user_byte", "ratio", mem/w.userBytes(), 1, 0)
	res.require(recoveries == 0, "memcloud.recoveries = %v with no machine killed", recoveries)
	inuse, err := settledInUse(func() (float64, error) {
		c, err := sv.d.scrape()
		return c["buf.inuse"], err
	})
	if err != nil {
		return nil, err
	}
	res.require(inuse == 0, "buf.inuse = %v after every reply was received", inuse)
	if env.traced {
		res.set("buf.inuse_end", "count", inuse, 1, 0)
		res.set("proc.rss_peak_mb", "MB", peakRSSMB(sv.d.cmd.Process.Pid), 1, 0)
	}
	sv.close(true)
	sv = nil
	if env.traced {
		// The replay and the probes are in-process work: give this
		// process the whole machine back first.
		if err := env.place.releaseSelf(); err != nil {
			return nil, err
		}
		if err := replayTraced(sp, env, res); err != nil {
			return nil, err
		}
	}
	res.set("fail_share", "ratio", float64(res.failed)/float64(res.attempted), int(res.attempted), 0)
	return res, nil
}

// settledInUse reads buf.inuse through read, allowing heartbeat frames in
// flight a moment to land: a lease still out after a second is a leak.
func settledInUse(read func() (float64, error)) (float64, error) {
	var inuse float64
	for i := 0; i < 20; i++ {
		v, err := read()
		if err != nil {
			return 0, err
		}
		if inuse = v; inuse == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return inuse, nil
}

// windowFor is the window length phases of dur are cut into: one second,
// or the whole phase when it is shorter than that (smoke runs).
func windowFor(dur time.Duration) int64 {
	if dur < time.Second {
		return int64(dur)
	}
	return int64(time.Second)
}

// openStats is the outcome of one open-loop phase.
type openStats struct {
	rate                 float64
	samples, windows     int
	p50Us, p99Us, p999Us float64
	p50Spread, p99Spread float64
	lateP99Us            float64
	backlogS             float64 // unanswered requests at phase end, in seconds of arrivals
	failShare            float64
	ok                   bool // met the latency limit without a growing backlog
}

// openPhase runs the workload mix open-loop at rate (total ops/s) for dur.
func openPhase(sp *spec, res *result, sv *served, w workloadGen, name string, rate float64, dur time.Duration, nconn int) (openStats, error) {
	perConn := rate / float64(nconn)
	streams := w.mix(openRequests(perConn, dur), false)
	logs, _ := runOpen(sv.clients, streams, perConn, dur)
	t := w.check(name, streams, logs, false)
	res.add(t)
	for c, l := range logs {
		if l.err != nil {
			// The connection is no longer in step with its stream.
			return openStats{}, fmt.Errorf("%s: connection %d: %w", name, c, l.err)
		}
	}

	samples := samplesOf(logs)
	ws := windows(samples, windowFor(dur), int64(dur))
	p99s := windowP99s(ws)
	lat := latencies(samples)
	late := sortedCopy(lateness(logs))
	st := openStats{
		rate: rate, samples: len(samples), windows: len(p99s),
		p50Us: percentile(lat, 0.5) / 1e3, p99Us: median(p99s) / 1e3, p999Us: percentile(lat, 0.999) / 1e3,
		p50Spread: spread(windowP50s(ws)), p99Spread: spread(p99s),
		lateP99Us: percentile(late, 0.99) / 1e3,
		backlogS:  float64(backlog(logs, streams, int64(dur))) / rate,
	}
	if t.attempted > 0 {
		st.failShare = float64(t.failed) / float64(t.attempted)
	}
	st.ok = st.p99Us <= sp.limitUs && st.backlogS <= 1 && st.failShare <= 0.001
	return st, nil
}
