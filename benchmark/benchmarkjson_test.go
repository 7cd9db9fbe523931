package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BENCHMARK.json is written from the tables in spec.go and layers.go, so
// that a correction to the benchmark edits one place:
//
//	GEN_BENCHMARK_JSON=1 go test -C benchmark -run TestGenerateBenchmarkJSON .
func TestGenerateBenchmarkJSON(t *testing.T) {
	if os.Getenv("GEN_BENCHMARK_JSON") == "" {
		t.Skip("set GEN_BENCHMARK_JSON=1 to rewrite BENCHMARK.json")
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command: []string{"go", "run", "-C", "benchmark", "trinity/benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		out.Workloads = append(out.Workloads, wl{s.name, s.why})
	}
	for _, s := range slots {
		out.EndToEnd = append(out.EndToEnd, e2e{s.name, s.unit, better(s.higher), s.bound})
	}
	for _, d := range perLayer {
		out.PerLayer = append(out.PerLayer, pl{d.name, d.unit, better(d.higher)})
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	root, _ := repoRoot()
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
