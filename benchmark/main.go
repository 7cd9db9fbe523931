// Command benchmark is the repository's scored benchmark: three workloads
// that drive a spawned trinityd over its TCP line protocol open-loop, one
// offline job that links the library, and a traced mode that costs every
// layer. See README.md in this directory.
//
//	go run -C benchmark . -seed 1                 # all four workloads, every end-to-end metric
//	go run -C benchmark . -seed 1 -trace 1        # the per-layer ladder and span files
//	go run -C benchmark . -aa                     # two sets back to back, compared against the bounds
//	go run -C benchmark . --workload kv_read --seed 1 --seconds 20 --trace 0   # one scored run
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// runEnv is what every workload run is given.
type runEnv struct {
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	root      string // repository root
	daemonBin string
	buildS    float64
	tracer    *tracer   // nil unless traced
	place     placement // how a serving run divides the processors
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	only     string
	aa       bool
	smoke    bool
	jsonPath string
	rowsPath string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the one-line JSON result (what the scoring driver calls)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run of one workload measures")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, reporting the per-layer metrics and writing span files instead of the end-to-end metrics")
	flag.StringVar(&o.only, "only", "", "with no -workload: run just this workload instead of all four")
	flag.BoolVar(&o.aa, "aa", false, "run two full sets back to back and check that they agree within every metric's bound")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes and a second or two per workload: checks that everything still runs, reports nothing worth reading")
	flag.StringVar(&o.jsonPath, "json", "", "also write the result rows (workload, metric, value, unit, samples, spread) to this file")
	flag.StringVar(&o.rowsPath, "rows", "", "internal: where a child run leaves its full result for the parent")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	var err error
	if o.workload != "" {
		err = runOne(o)
	} else {
		err = runAll(o)
	}
	if err != nil {
		fatal(err)
	}
}

// errIncorrect marks a run that completed but whose outputs were wrong.
var errIncorrect = errors.New("outputs were not all correct")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	cleanup()
	os.Exit(1)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "# "+format+"\n", args...) }

// cleanup kills whatever this process started: daemons of a worker run,
// worker processes (and through their process group, their daemons) of a
// parent run, and the hand-over files of those workers.
func cleanup() {
	children.killAll()
	workers.killAll()
}

// runOne is a worker: one workload, measured in this process.
func runOne(o options) error {
	sp := specByName(o.workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %v: need at least 1", o.seconds)
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	env := &runEnv{seed: o.seed, seconds: o.seconds, traced: o.trace != 0, smoke: o.smoke, root: root}
	if o.smoke {
		small := sp.smoke()
		sp = &small
	}
	bin, took, err := buildDaemon(root)
	if err != nil {
		return err
	}
	env.daemonBin, env.buildS = bin, took.Seconds()
	if env.traced {
		env.tracer = newTracer()
	}

	run := runOffline
	if sp.serving {
		run = runServing
	}
	res, err := run(sp, env)
	if err != nil {
		return err
	}
	if env.traced {
		if err := finishTrace(sp, env, res); err != nil {
			return err
		}
	}
	for _, n := range res.notes {
		logf("FAILED: %s", n)
	}
	if o.rowsPath != "" {
		if err := writeRows(o.rowsPath, []*result{res}); err != nil {
			return err
		}
	} else {
		printResult(os.Stdout, res)
	}
	line, err := resultLine(res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if res.failed > 0 {
		return errIncorrect
	}
	return nil
}

// resultLine renders the one-line JSON the scoring driver reads: the
// scored end-to-end metrics of an untraced run, the per-layer metrics of
// a traced one.
func resultLine(res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.traced {
		for _, d := range perLayer {
			metrics[d.name] = value{res.metrics[d.name].value, d.unit}
		}
	} else {
		for _, s := range slots {
			v, err := s.valueIn(res)
			if err != nil {
				return "", err
			}
			metrics[s.name] = value{v, s.unit}
		}
	}
	b, err := json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	return string(b), err
}

// valueIn picks the native metric this slot carries for res's workload
// and converts it into the slot's unit.
func (s slot) valueIn(res *result) (float64, error) {
	name, scale := s.serving, 1.0
	if !specByName(res.workload).serving {
		name, scale = s.offline, s.offlineScale
	}
	m, ok := res.metrics[name]
	if !ok || m.value <= 0 {
		return 0, fmt.Errorf("workload %s produced no positive %s for scored metric %s", res.workload, name, s.name)
	}
	return m.value * scale, nil
}

// Parent mode: each workload in a fresh worker process, so neither heap
// nor daemon state carries from one workload to the next.

type workerSet struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]string // worker -> its hand-over file
}

var workers = &workerSet{procs: map[*exec.Cmd]string{}}

func (w *workerSet) killAll() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for cmd, rows := range w.procs {
		if cmd.Process != nil {
			// The worker leads its own process group, which its daemon
			// inherited: one signal ends both.
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		os.Remove(rows)
	}
}

// runWorker runs one workload in a child and returns its result.
func runWorker(o options, workload string, seed uint64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir(root), 0o755); err != nil {
		return nil, err
	}
	rows := filepath.Join(outDir(root), fmt.Sprintf("rows-%s-%d.json", workload, os.Getpid()))
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-rows", rows,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = os.Stderr // the worker's result line is for the driver, not for this report
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	workers.mu.Lock()
	workers.procs[cmd] = rows
	workers.mu.Unlock()
	defer func() {
		workers.mu.Lock()
		delete(workers.procs, cmd)
		workers.mu.Unlock()
		os.Remove(rows)
	}()
	runErr := cmd.Run()
	got, err := readRows(rows)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("workload %s: %w", workload, runErr)
		}
		return nil, err
	}
	return got[0], nil
}

func runAll(o options) error {
	names := []string{}
	for _, sp := range specs {
		if o.only == "" || o.only == sp.name {
			names = append(names, sp.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", o.only)
	}
	if o.smoke && o.seconds == defaultSeconds {
		o.seconds = smokeSeconds
	}
	sets := 1
	if o.aa {
		sets = 2
	}
	var all [][]*result
	incorrect := false
	for set := 0; set < sets; set++ {
		var results []*result
		for _, name := range names {
			begin := time.Now()
			res, err := runWorker(o, name, o.seed)
			if err != nil {
				return err
			}
			logf("%s: set %d done in %.1fs", name, set+1, time.Since(begin).Seconds())
			printResult(os.Stdout, res)
			incorrect = incorrect || res.failed > 0
			results = append(results, res)
		}
		all = append(all, results)
	}
	if o.jsonPath != "" {
		if err := writeRows(o.jsonPath, all[len(all)-1]); err != nil {
			return err
		}
	}
	if o.aa && !compareSets(os.Stdout, all[0], all[1]) {
		return errors.New("the two sets disagree by more than a metric's bound")
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}
