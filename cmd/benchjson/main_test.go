package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkThreeHopExploration-8   100   15125843 ns/op   1234 B/op   56 allocs/op", "trinity/internal/compute/traversal")
	if !ok {
		t.Fatal("line did not parse")
	}
	if r.Name != "BenchmarkThreeHopExploration" || r.Iterations != 100 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics["ns/op"] != 15125843 || r.Metrics["B/op"] != 1234 || r.Metrics["allocs/op"] != 56 {
		t.Fatalf("metrics %+v", r.Metrics)
	}
	if _, ok := parseLine("Benchmark garbage", ""); ok {
		t.Fatal("garbage parsed")
	}
}

func writeJSON(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", `[
	  {"name":"BenchmarkA","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":100}},
	  {"name":"BenchmarkB","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":100}},
	  {"name":"BenchmarkGone","package":"p","iterations":10,"metrics":{"ns/op":5}}
	]`)
	newP := writeJSON(t, dir, "new.json", `[
	  {"name":"BenchmarkA","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":115}},
	  {"name":"BenchmarkB","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":150}},
	  {"name":"BenchmarkNew","package":"p","iterations":10,"metrics":{"ns/op":7}}
	]`)
	var out strings.Builder
	regressed, err := runCompare(oldP, newP, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1 (only B allocates past 20%%)\n%s", regressed, out.String())
	}
	rep := out.String()
	for _, want := range []string{"ALLOC p.BenchmarkB", "ok    p.BenchmarkA", "NEW   p.BenchmarkNew", "GONE  p.BenchmarkGone"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// Time gates nothing, in either direction; nor does an allocs/op blip
// inside the absolute grace, nor a side recorded without -benchmem.
func TestCompareWithinToleranceIsClean(t *testing.T) {
	dir := t.TempDir()
	oldP := writeJSON(t, dir, "old.json", `[
	  {"name":"BenchmarkSlow","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":10}},
	  {"name":"BenchmarkFast","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":10}},
	  {"name":"BenchmarkZero","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":0}},
	  {"name":"BenchmarkNoMem","package":"p","iterations":10,"metrics":{"ns/op":1000}}
	]`)
	newP := writeJSON(t, dir, "new.json", `[
	  {"name":"BenchmarkSlow","package":"p","iterations":10,"metrics":{"ns/op":3000,"allocs/op":10}},
	  {"name":"BenchmarkFast","package":"p","iterations":10,"metrics":{"ns/op":300,"allocs/op":10}},
	  {"name":"BenchmarkZero","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":2}},
	  {"name":"BenchmarkNoMem","package":"p","iterations":10,"metrics":{"ns/op":1000,"allocs/op":500}}
	]`)
	var out strings.Builder
	regressed, err := runCompare(oldP, newP, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressed != 0 || strings.Contains(out.String(), "ALLOC") {
		t.Fatalf("clean comparison flagged %d regression(s):\n%s", regressed, out.String())
	}
}

func TestCompareRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	bad := writeJSON(t, dir, "bad.json", `{not json`)
	good := writeJSON(t, dir, "good.json", `[]`)
	if _, err := runCompare(bad, good, &strings.Builder{}); err == nil {
		t.Fatal("corrupt old file accepted")
	}
	if _, err := runCompare(good, filepath.Join(dir, "missing.json"), &strings.Builder{}); err == nil {
		t.Fatal("missing new file accepted")
	}
}
