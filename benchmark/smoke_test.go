package main

import (
	"testing"
)

// Every workload, tiny sizes, a second or two each, untraced and traced:
// the benchmark cannot rot without this failing. Numbers are not checked,
// only that every scored metric is produced and every output verifies.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns trinityd")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, took, err := buildDaemon(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		for i := range specs {
			sp := specs[i].smoke()
			env := &runEnv{seed: 11, seconds: smokeSeconds, traced: traced, smoke: true, root: root, daemonBin: bin, buildS: took.Seconds()}
			if traced {
				env.tracer = newTracer()
			}
			run := runServing
			if !sp.serving {
				run = runOffline
			}
			res, err := run(&sp, env)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", sp.name, traced, err)
			}
			if traced {
				if err := finishTrace(&sp, env, res); err != nil {
					t.Fatalf("%s: finishTrace: %v", sp.name, err)
				}
				if len(env.tracer.spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", sp.name)
				}
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (traced=%v): %d of %d failed: %v", sp.name, traced, res.failed, res.attempted, res.notes)
			}
			if _, err := resultLine(res); err != nil {
				t.Errorf("%s (traced=%v): %v", sp.name, traced, err)
			}
		}
	}
	children.killAll() // nothing should be left; this is the safety net
}
