package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// BENCHMARK.json is what the scoring driver reads; spec.go and layers.go
// are what the program reports. They must say the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	checkName := func(n, u string) {
		if !name.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}

	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		checkName(w.Name, "")
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if len(b.EndToEnd) != len(slots) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d slots", len(b.EndToEnd), len(slots))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		checkName(m.Name, m.Unit)
		s := slots[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != better(s.higher) || m.Bound != s.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s in seconds, lower is better")
	}

	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in layers.go (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, layers.go has %+v", i, m, d)
		}
	}
}

// Every slot must find its native metric among the declared ones, and
// every native metric but fail_share must be carried by a slot.
func TestSlotsCoverTheNativeMetrics(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range native {
		declared[d.name] = true
	}
	carried := map[string]bool{"fail_share": true, "pagerank_superstep_ms": true} // the latter as pagerank_edges_s
	for name := range unscoredBounds {
		carried[name] = true // measured and compared by -aa, deliberately unscored
	}
	for _, s := range slots {
		if !declared[s.serving] || !declared[s.offline] {
			t.Errorf("slot %s carries undeclared metric %q or %q", s.name, s.serving, s.offline)
		}
		carried[s.serving], carried[s.offline] = true, true
	}
	for _, d := range native {
		if !carried[d.name] {
			t.Errorf("native metric %s is scored by no slot", d.name)
		}
	}
}
